(* The fault-sweep experiment: the E1-style file workload driven under
   increasing injected crash rates.

   Each point boots a fresh system — microkernel, name service, HPFS
   file server under supervision — installs a seeded fault plan that
   crashes the file server at some parts-per-million rate per request,
   and runs edit sessions (open, write, seek, reads, close) from several
   client threads.  Clients go through [Rpc.call_retry] with a
   name-service re-resolve, so a crash costs them a timeout, a backoff
   and a re-open rather than the workload.  The output is the price of
   resilience: completion rate, retries, restarts and added cycles per
   operation relative to the zero-fault baseline. *)

module Sup = Mk_services.Supervisor

type point = {
  p_crash_ppm : int;
  p_ops : int;  (* sessions attempted *)
  p_completed : int;
  p_retries : int;  (* call_retry re-issues *)
  p_reopens : int;  (* whole-session restarts after a lost handle *)
  p_restarts : int;  (* supervisor restarts of the file server *)
  p_gave_up : bool;
  p_injected_crashes : int;
  p_disk_faults : int;  (* injected disk-level faults (write reordering) *)
  p_cycles_per_op : float;
}

type result = {
  r_seed : int;
  r_clients : int;
  r_sessions : int;
  r_baseline_cycles_per_op : float;
  r_points : point list;
}

(* Storage faults ride along at the crash rate: write reordering only —
   benign for a format whose durability contract is sync-based, but it
   exercises the barrier path under load.  (Torn writes and bit rot
   would silently corrupt the journal-less HPFS; the recovery sweep
   covers those.) *)
let script ~seed ~crash_ppm ~disk =
  let plan = Mach.Fault.create ~seed () in
  Mach.Fault.set_rates plan ~port:"file-service" ~crash_ppm ();
  Mach.Fault.set_disk_rates plan ~disk ~reorder_ppm:crash_ppm ();
  plan

let run_point ~seed ~clients ~sessions ~crash_ppm =
  Scenario.run
    {
      Scenario.base with
      boot = Services Full_naming;
      fs = Some 1;
      faults = (if crash_ppm > 0 then Some (script ~seed ~crash_ppm) else None);
    }
  @@ fun e ->
  let completed = ref 0 and last_done = ref 0 in
  (* the old flat 64-restart cap, as a budget whose window never expires *)
  let s =
    Scenario.supervised_edits e ~clients ~sessions ~budget:64 ~health:false
      (fun ok ->
        if ok then incr completed;
        last_done := Machine.now e.m)
  in
  fun () ->
    Sup.stop s.sup;
    let ops = clients * sessions in
    let count f = Option.fold ~none:0 ~some:f e.plan in
    {
      p_crash_ppm = crash_ppm;
      p_ops = ops;
      p_completed = !completed;
      p_retries = e.sys.Mach.Sched.retry_attempts;
      p_reopens = !(s.reopens);
      p_restarts = Sup.restarts s.sup;
      p_gave_up = Sup.gave_up s.sup;
      p_injected_crashes = count Mach.Fault.injected_crashes;
      p_disk_faults = count Mach.Fault.injected_disk_faults;
      p_cycles_per_op =
        (if ops = 0 then 0.0
         else float_of_int (max 0 (!last_done - !(s.started))) /. float_of_int ops);
    }

let default_rates = [ 2_000; 10_000; 30_000 ]

let run ?(seed = 42) ?(clients = 4) ?(sessions = 10) ?(rates = default_rates)
    () =
  if rates = [] then invalid_arg "Fault_sweep.run: empty rate list";
  let baseline = run_point ~seed ~clients ~sessions ~crash_ppm:0 in
  {
    r_seed = seed;
    r_clients = clients;
    r_sessions = sessions;
    r_baseline_cycles_per_op = baseline.p_cycles_per_op;
    r_points =
      List.map (fun ppm -> run_point ~seed ~clients ~sessions ~crash_ppm:ppm) rates;
  }

let to_json r =
  [
    ("seed", Json.int r.r_seed); ("clients", Json.int r.r_clients);
    ("sessions", Json.int r.r_sessions);
    ("ops", Json.int (r.r_clients * r.r_sessions));
    ("baseline_cycles_per_op", Json.fixed 1 r.r_baseline_cycles_per_op);
    ( "results",
      Json.rows
        (fun p ->
          [ ("crash_ppm", Json.int p.p_crash_ppm); ("ops", Json.int p.p_ops);
            ("completed", Json.int p.p_completed);
            ( "completion_rate",
              Json.fixed 3
                (if p.p_ops = 0 then 0.0
                 else float_of_int p.p_completed /. float_of_int p.p_ops)
            );
            ("retries", Json.int p.p_retries);
            ("reopens", Json.int p.p_reopens);
            ("restarts", Json.int p.p_restarts);
            ("gave_up", Json.Bool p.p_gave_up);
            ("injected_crashes", Json.int p.p_injected_crashes);
            ("disk_faults", Json.int p.p_disk_faults);
            ("cycles_per_op", Json.fixed 1 p.p_cycles_per_op);
            ( "added_cycles_per_op",
              Json.fixed 1
                (p.p_cycles_per_op -. r.r_baseline_cycles_per_op) ) ])
        r.r_points );
  ]
