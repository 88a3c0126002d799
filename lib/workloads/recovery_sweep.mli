(** The recovery-sweep experiment: exhaustive crash-point checking of
    the journalled file system.

    A scripted file workload runs against JFS once per {e crash point}:
    a seeded {!Mach.Fault} plan cuts disk power at write 1, write 2, ...
    write N (N learned from an un-faulted reference run).  After each
    cut the sweep plays a supervised restart — power restored, a cold
    block cache, a recovery mount that replays the journal — and checks
    that no acknowledged operation is lost and the volume passes the
    full fsck invariant scan.  Violations become Machcheck "crash"
    findings when a checker is installed, and appear in
    the point rows either way.

    Two side series measure the journal's cost (cycles and disk writes
    per op against the same engine without a journal) and recovery
    latency (replay time versus journal fill). *)

val run :
  ?seed:int -> ?ops:int -> ?max_points:int -> ?series:int list -> unit ->
  Experiment.result
(** [BENCH_recovery.json]: [run ()] sweeps every crash point when the
    workload's write count fits [max_points] (default 64; the body's
    ["exhaustive"] says so), else an even-stride sample from the first
    write to the last (a one-point sample is the last write).  [ops]
    (default 12) sizes the scripted workload; [series] (default
    [[4; 8; 16]]) sizes the overhead and latency side series.  Gates: no
    lost acknowledged write, no torn recovered state. *)
