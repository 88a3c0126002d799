(** The fault-sweep experiment: the file workload under injected server
    crashes.

    Each point boots a fresh system with the HPFS file server running
    under {!Mk_services.Supervisor} and clients calling through
    {!Mach.Rpc.call_retry} with name-service re-resolution, then drives
    edit sessions while a seeded {!Mach.Fault} plan crashes the server
    at a parts-per-million rate per request.  Reported per point:
    completion rate, retries, re-opens, supervisor restarts, and cycles
    per operation against the zero-fault baseline — the measured cost of
    surviving a crashy server. *)

val run :
  ?seed:int -> ?clients:int -> ?sessions:int -> ?rates:int list -> unit ->
  Experiment.result
(** [BENCH_faults.json]: the zero-fault baseline plus one ["results"]
    row per crash rate (ppm per request; default
    [[2_000; 10_000; 30_000]]), disk write reordering riding along at
    the same rate. *)
