(** Sustained IPC throughput under load: [workers] concurrent
    client/server pairs hammering round trips through both transports
    (Mach 3.0 [mach_msg] and the IBM RPC rework) at several payload
    sizes, reporting simulated cycles per operation alongside host
    nanoseconds per operation, plus the reply-port-cache and kernel
    message-buffer statistics the run generated. *)

val run :
  ?workers:int -> ?iters:int -> ?sizes:int list -> unit -> Experiment.result
(** [BENCH_ipc.json]: one ["results"] row per point, each ["system"]
    being ["mach_msg"], ["ibm_rpc"] or — at page-sized payloads — the
    copy-vs-remap pair ["rpc_copy"] / ["rpc_remap"] (the same transport
    with the out-of-line transfer pinned to the physical-copy or
    page-remap path); the reply-port-cache and kernel message-buffer
    counters are summed over the points, the buffer peak is their
    maximum.  Defaults: 4 worker pairs, 200 round trips each, payloads
    of 0 B to 64 KB.
    @raise Invalid_argument on an empty size list. *)

val sim_cycles_per_op :
  ?workers:int -> ?iters:int -> ?sizes:int list -> unit ->
  ((string * int) * float) list
(** The same sweep's simulated cycles per operation by (system, bytes),
    unrounded: the file keeps one decimal. *)
