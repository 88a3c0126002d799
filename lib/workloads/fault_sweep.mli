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
  r_check : Check.report option;
      (** Machcheck report over the whole sweep when run with
          [~checks:true]; [None] otherwise *)
}

val run :
  ?seed:int -> ?clients:int -> ?sessions:int -> ?rates:int list ->
  ?checks:bool -> unit -> result
(** Run the baseline plus one point per crash rate (ppm per request;
    default [[2_000; 10_000; 30_000]]).  [~checks:true] runs the whole
    sweep — including every supervised restart — under Machcheck and
    fills [r_check]. *)

val service_path : string
(** Where the supervised file server is registered. *)

val fail_fs : Fileserver.Fs_types.fs_error -> 'a

val run_session :
  Fileserver.File_server.t -> Fileserver.Vfs.semantics -> path:string ->
  reopens:int ref -> bool
(** One edit session (open, write, four reads, close, sync), restarted
    from the open at most three times when a step fails; each restart
    bumps [reopens].  True when a pass completed. *)

val to_json : result -> (string * Json.t) list
(** The fields of [BENCH_faults.json] after the envelope. *)
