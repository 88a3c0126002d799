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

(* One point: its cycles per session, and its row up to them. *)
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
    let count f = Json.int (Option.fold ~none:0 ~some:f e.plan) in
    let ratio n = if ops = 0 then 0.0 else n /. float_of_int ops in
    ( ratio (float_of_int (max 0 (!last_done - !(s.started)))),
      [ ("crash_ppm", Json.int crash_ppm); ("ops", Json.int ops);
        ("completed", Json.int !completed);
        ("completion_rate", Json.fixed 3 (ratio (float_of_int !completed)));
        ("retries", Json.int e.sys.Mach.Sched.retry_attempts);
        ("reopens", Json.int !(s.reopens));
        ("restarts", Json.int (Sup.restarts s.sup));
        ("gave_up", Json.Bool (Sup.gave_up s.sup));
        ("injected_crashes", count Mach.Fault.injected_crashes);
        ("disk_faults", count Mach.Fault.injected_disk_faults) ] )

let default_rates = [ 2_000; 10_000; 30_000 ]

let run ?(seed = 42) ?(clients = 4) ?(sessions = 10) ?(rates = default_rates)
    () =
  if rates = [] then invalid_arg "Fault_sweep.run: empty rate list";
  let baseline, _ = run_point ~seed ~clients ~sessions ~crash_ppm:0 in
  let rows =
    List.map
      (fun crash_ppm ->
        let cycles, row = run_point ~seed ~clients ~sessions ~crash_ppm in
        row
        @ [ ("cycles_per_op", Json.fixed 1 cycles);
            ("added_cycles_per_op", Json.fixed 1 (cycles -. baseline)) ])
      rates
  in
  Experiment.result ~seed
    [
      ("seed", Json.int seed); ("clients", Json.int clients);
      ("sessions", Json.int sessions); ("ops", Json.int (clients * sessions));
      ("baseline_cycles_per_op", Json.fixed 1 baseline);
      ("results", Json.rows Fun.id rows);
    ]
