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

type point = {
  p_crash_ppm : int;
  p_ops : int;
  p_completed : int;
  p_retries : int;
  p_reopens : int;
  p_restarts : int;
  p_gave_up : bool;
  p_injected_crashes : int;
  p_disk_faults : int;
      (** injected disk-level faults (write reordering at the same ppm
          rate as server crashes) *)
  p_cycles_per_op : float;
}

type result = {
  r_seed : int;
  r_clients : int;
  r_sessions : int;
  r_baseline_cycles_per_op : float;
  r_points : point list;
}

val run :
  ?seed:int -> ?clients:int -> ?sessions:int -> ?rates:int list -> unit ->
  result
(** Run the baseline plus one point per crash rate (ppm per request;
    default [[2_000; 10_000; 30_000]]). *)

val to_json : result -> (string * Json.t) list
(** The fields of [BENCH_faults.json] after the envelope. *)
