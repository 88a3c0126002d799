(** The smp-scaling experiment: throughput-vs-cores curves.

    Drives the ipc-stress round-trip engine (three placement policies:
    colocated pairs, crossed pairs, everything-on-CPU-0 with work
    stealing) and the E1-style file-server edit workload at 1/2/4/8
    simulated CPUs, and reports aggregate throughput, speedup against
    the 1-CPU anchor, and the SMP cost counters (IPIs, scheduler
    messages, steals, coherence misses, bus stalls). *)

val run :
  ?cpus:int list -> ?pairs:int -> ?iters:int -> ?bytes:int -> ?clients:int ->
  ?sessions:int -> unit -> Experiment.result
(** [BENCH_smp.json]: one ["results"] row per (workload, placement,
    CPU count) point and the per-CPU machine-state bytes at each CPU
    count.  Defaults: CPUs [1;2;4;8], 8 pairs x 150 round trips of 512
    bytes, 6 clients x 4 edit sessions.  Gate: colocated-ipc throughput
    at 4 CPUs at least 1.5x of 1 CPU — the headline scaling number;
    absent when the sweep has no 4-CPU point. *)
