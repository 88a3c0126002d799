(* The fault-storm experiment: availability under live fault injection.

   Five scenarios, each booting a fresh machine, each measuring how much
   service survives while a component is killed, wedged or crash-looped
   under load — the reincarnation-service counterpart to fault-sweep's
   completion-rate curve:

   - [shard-golden]: an open-loop deterministic UDP storm over a sharded
     netserver while one protocol shard is killed and reincarnated
     mid-run.  Because injection is blind to server state, the untouched
     shards must process *exactly* the packet counts of a no-fault
     control run (the golden assert), and the victim's shortfall must
     equal the counted reboot drops.
   - [shard-storm]: closed-loop acknowledged echo operations from one
     victim client per CPU while the shard homing a victim's socket is
     killed and reincarnated twice.  Acked ops are never lost — clients
     re-drive dropped traffic through their retry budgets — and the
     fault windows give per-window availability and shard MTTR.
   - [fs-crash]: the E1-style edit workload against a health-supervised
     file server under random crash injection plus disk write-reorder
     faults; the supervisor's dead-name path restarts it and MTTR is
     death-to-rebind.
   - [fs-wedge]: scripted [Wedge_server] faults stick the file server's
     serve loop mid-request; the port stays alive, so only the
     supervisor's heartbeat watchdog can see it.  Detection, kill and
     restart must happen while clients keep completing.
   - [crash-loop]: a server whose every incarnation dies immediately
     burns its restart budget and is demoted to degraded mode; a client
     resolving the name must get [Kern_unavailable] back fast — the
     fast-fail latency is the measurement — instead of hanging.

   All randomness is the seeded fault plan plus a seeded LCG: every
   number is deterministic. *)

open Mach.Ktypes
module Sup = Mk_services.Supervisor

type point = {
  fp_scenario : string;
  fp_ops : int;  (* operations attempted (or packets injected) *)
  fp_completed : int;
  fp_lost : int;  (* acked/attempted ops that never completed: must be 0 *)
  fp_in_ops : int;  (* ops finishing inside a fault window *)
  fp_in_ok : int;
  fp_out_ops : int;
  fp_out_ok : int;
  fp_avail_in : float;  (* success ratio inside fault windows *)
  fp_avail_out : float;
  fp_rate_in : float;  (* successful ops per Mcycle inside windows *)
  fp_rate_out : float;
  fp_windows : int;  (* fault windows injected *)
  fp_mttr : float;  (* mean time to repair, cycles (0 when n/a) *)
  fp_restarts : int;
  fp_wedge_kills : int;
  fp_degraded : int;
  fp_reboot_drops : int;  (* in-flight packets lost to shard reboots *)
  fp_reincarnations : int;
  fp_golden_ok : bool;  (* untouched shards identical to the control run *)
  fp_fastfail_cycles : int;  (* degraded-mode error latency (-1 = n/a) *)
}

type result = { fr_seed : int; fr_points : point list }

let base scenario =
  {
    fp_scenario = scenario;
    fp_ops = 0;
    fp_completed = 0;
    fp_lost = 0;
    fp_in_ops = 0;
    fp_in_ok = 0;
    fp_out_ops = 0;
    fp_out_ok = 0;
    fp_avail_in = 1.0;
    fp_avail_out = 1.0;
    fp_rate_in = 0.0;
    fp_rate_out = 0.0;
    fp_windows = 0;
    fp_mttr = 0.0;
    fp_restarts = 0;
    fp_wedge_kills = 0;
    fp_degraded = 0;
    fp_reboot_drops = 0;
    fp_reincarnations = 0;
    fp_golden_ok = true;
    fp_fastfail_cycles = -1;
  }

(* --- op ledger: completion-stamped outcomes vs fault windows -------------- *)

(* A ledger notes each finished op's outcome at the global clock. *)
let ledger (e : Scenario.env) =
  let lg = ref [] in
  (lg, fun ok -> lg := (Machine.global_now e.m, ok) :: !lg)

let ratio ok total = if total = 0 then 1.0 else float_of_int ok /. float_of_int total

let window_cycles windows =
  List.fold_left (fun acc (a, b) -> acc + max 0 (b - a)) 0 windows

let mean_window windows =
  match windows with
  | [] -> 0.0
  | ws -> float_of_int (window_cycles ws) /. float_of_int (List.length ws)

(* Fill the availability block of a point from a ledger + windows:
   each op counts inside or outside by its completion stamp. *)
let with_availability p l windows ~wall =
  let inside at = List.exists (fun (a, b) -> at >= a && at <= b) windows in
  let count f = List.length (List.filter f l) in
  let iop = count (fun (at, _) -> inside at) in
  let iok = count (fun (at, ok) -> ok && inside at) in
  let oop = List.length l - iop and ook = count snd - iok in
  let wsum = window_cycles windows in
  {
    p with
    fp_in_ops = iop;
    fp_in_ok = iok;
    fp_out_ops = oop;
    fp_out_ok = ook;
    fp_avail_in = ratio iok iop;
    fp_avail_out = ratio ook oop;
    fp_rate_in = Scenario.per_mcycle iok wsum;
    fp_rate_out = Scenario.per_mcycle ook (max 0 (wall - wsum));
    fp_windows = List.length windows;
    fp_mttr = mean_window windows;
  }

(* --- shard-golden: open-loop storm, untouched shards byte-identical ------- *)

(* One run of the open-loop storm.  The injection schedule is fixed on
   the event timeline before any packet flies, so it is identical with
   and without the mid-run kill; the killer thread exists in both runs
   (bound to the victim shard's CPU, so its cycles land there and only
   there) and merely declines to kill in the control run. *)
let golden_run ~endpoints ~rounds ~kill =
  Scenario.run { Scenario.base with ncpus = 4; net = Some 64 } @@ fun e ->
  let m = e.m and net = Option.get e.netserver in
  let victim = Netserver.port_shard net ~port:100 in
  let gap = 8_000 in
  let task = Mach.Kernel.task_create e.k ~name:"storm" () in
  let windows = ref [] in
  let schedule at f = Machine.Event_queue.schedule m.Machine.events ~at f in
  let inject_round r =
    for ep = 0 to endpoints - 1 do
      let src = 10_000 + (Scenario.lcg ((r * 131) + ep) mod 5_000) in
      Netserver.inject_udp net ~src_port:src ~dst_port:(100 + ep) ~bytes:256
    done
  in
  Scenario.spawn e task "binder" (fun () ->
      for ep = 0 to endpoints - 1 do
        match Netserver.udp_socket net ~port:(100 + ep) with
        | Error err -> failwith err
        | Ok _ -> ()
      done;
      let t0 = Machine.now m + 2_000 in
      for r = 0 to rounds - 1 do
        schedule (t0 + (r * gap)) (fun () -> inject_round r)
      done);
  Scenario.spawn e task ~cpu:(victim mod 4) "killer" (fun () ->
      Scenario.sleep e (12 * gap);
      if kill then begin
        let d0 = Machine.global_now m in
        Netserver.kill_shard net ~shard:victim;
        Scenario.sleep e (10 * gap);
        Netserver.reincarnate_shard net ~shard:victim;
        windows := (d0, Machine.global_now m) :: !windows
      end
      else Scenario.sleep e (10 * gap));
  fun () -> (net, victim, !windows)

let shard_golden ~endpoints ~rounds () =
  let netc, victim, _ = golden_run ~endpoints ~rounds ~kill:false in
  let netf, victim', windows = golden_run ~endpoints ~rounds ~kill:true in
  assert (victim = victim');
  let dc = Netserver.shard_delivered netc in
  let df = Netserver.shard_delivered netf in
  let drops = Netserver.reboot_drops netf in
  let golden = ref (drops > 0) in
  Array.iteri (fun i d -> if i <> victim && d <> dc.(i) then golden := false) df;
  (* the victim's shortfall is exactly the counted reboot drops *)
  if df.(victim) + drops <> dc.(victim) then golden := false;
  let total = Array.fold_left ( + ) 0 df in
  {
    (base "shard-golden") with
    fp_ops = rounds * endpoints;
    fp_completed = total;
    fp_lost = 0;  (* open loop: drops are expected, acked ops don't exist *)
    fp_windows = List.length windows;
    fp_mttr = mean_window windows;
    fp_reboot_drops = drops;
    fp_reincarnations = Netserver.shard_reincarnations netf;
    fp_golden_ok = !golden;
  }

(* --- shard-storm: closed-loop acked ops across shard micro-reboots -------- *)

let shard_storm ~victim_ops () =
  let ncpus = 4 in
  Scenario.run { Scenario.base with ncpus; net = Some 64 } @@ fun e ->
  let m = e.m and net = Option.get e.netserver in
  let echo_home = Netserver.port_shard net ~port:7 in
  (* kill the shard homing a victim's receive socket — never the echo
     server's, so the service itself stays up and only that victim's
     replies vanish while the shard is down *)
  let victim =
    let rec pick cpu =
      if cpu >= ncpus then (echo_home + 1) mod ncpus
      else
        let sh = Netserver.port_shard net ~port:(20_000 + cpu) in
        if sh <> echo_home then sh else pick (cpu + 1)
    in
    pick 0
  in
  let task = Mach.Kernel.task_create e.k ~name:"storm" () in
  let lg, note = ledger e in
  let windows = ref [] in
  Scenario.echo_server e task;
  Scenario.spawn e task ~cpu:(victim mod ncpus) "killer" (fun () ->
      Scenario.sleep e 40_000;
      for _ = 1 to 2 do
        let d0 = Machine.global_now m in
        Netserver.kill_shard net ~shard:victim;
        Scenario.sleep e 50_000;
        Netserver.reincarnate_shard net ~shard:victim;
        windows := (d0, Machine.global_now m) :: !windows;
        Scenario.sleep e 80_000
      done);
  let t = Scenario.echo_clients e task ~ops:victim_ops ~budget:40 note in
  fun () ->
    let p =
      {
        (base "shard-storm") with
        fp_ops = victim_ops * ncpus;
        fp_completed = t.acked;
        fp_lost = t.lost;
        fp_reboot_drops = Netserver.reboot_drops net;
        fp_reincarnations = Netserver.shard_reincarnations net;
      }
    in
    with_availability p !lg !windows ~wall:(Machine.global_now m)

(* --- fs-crash / fs-wedge: the health-supervised file server --------------- *)

(* [clients]x[sessions] edit sessions against the supervised file server
   with a heartbeat, under the scenario's fault script; the supervisor
   stands down when the last session lands. *)
let fs_scenario ~scenario ~seed ~clients ~sessions ~server_threads ~script () =
  Scenario.run
    {
      Scenario.base with
      boot = Services Full_naming;
      fs = Some server_threads;
      faults =
        Some
          (fun ~disk ->
            let plan = Mach.Fault.create ~seed () in
            script plan ~disk;
            plan);
    }
  @@ fun e ->
  let lg, note = ledger e in
  let s =
    Scenario.supervised_edits e ~clients ~sessions ~budget:16 ~health:true note
  in
  fun () ->
    let total = clients * sessions in
    let completed = List.length (List.filter snd !lg) in
    let path = Scenario.service_path in
    let p =
      {
        (base scenario) with
        fp_ops = total;
        fp_completed = completed;
        fp_lost = total - completed;
        fp_restarts = Sup.path_restarts s.sup ~path;
        fp_wedge_kills = Sup.path_wedge_kills s.sup ~path;
        fp_degraded = Sup.degraded_count s.sup;
      }
    in
    let p =
      with_availability p !lg !(s.restarts) ~wall:(Machine.global_now e.m)
    in
    (* prefer the supervisor's own death-to-rebind MTTR when it has one *)
    match Sup.mttr s.sup ~path with
    | Some c -> { p with fp_mttr = float_of_int c }
    | None -> p

let fs_crash ~seed ~clients ~sessions () =
  fs_scenario ~scenario:"fs-crash" ~seed ~clients ~sessions ~server_threads:2
    ~script:(fun plan ~disk ->
      Mach.Fault.set_rates plan ~port:"file-service" ~crash_ppm:30_000 ();
      Mach.Fault.set_disk_rates plan ~disk ~reorder_ppm:30_000 ())
    ()

let fs_wedge ~seed ~clients ~sessions () =
  fs_scenario ~scenario:"fs-wedge" ~seed ~clients ~sessions ~server_threads:1
    ~script:(fun plan ~disk:_ ->
      (* a scripted wedge far past the watchdog — which itself must sit
         above the slowest legitimate request: a single serve thread
         flushing a recovery-dirtied cache on sync can legitimately hold
         the loop for over a megacycle, and a too-tight watchdog turns
         that into a kill/restart/slow-sync cascade.  The port stays
         alive throughout; only the heartbeat's busy-since stamp betrays
         the wedge. *)
      Mach.Fault.at_request plan ~port:"file-service" ~n:8
        (Mach.Fault.Wedge_server 12_000_000))
    ()

(* --- crash-loop: budget exhaustion, degraded mode, fast-fail -------------- *)

let crash_loop () =
  Scenario.run
    { Scenario.base with boot = Services Full_naming }
  @@ fun e ->
  let m = e.m and sys = e.sys in
  let boot = Option.get e.services in
  let ns = Mk_services.Bootstrap.name_service_exn boot in
  let sup = Sup.create e.k boot.Mk_services.Bootstrap.runtime ns in
  let path = "/services/flaky" in
  let task = Mach.Kernel.task_create e.k ~name:"flaky" () in
  let make_port () = Mach.Port.allocate sys ~receiver:task ~name:"flaky" in
  let fastfail = ref (-1) in
  let deaths = ref 0 in
  Scenario.spawn e task "register" (fun () ->
      Sup.supervise sup ~path ~budget:3 ~backoff:2_000 ~port:(make_port ())
        ~restart:make_port ());
  (* the crash loop itself: every incarnation is murdered moments after
     it appears, until the supervisor gives up and demotes *)
  Scenario.spawn e task "crasher" (fun () ->
      Scenario.sleep e 5_000;
      while not (Sup.is_degraded sup ~path) do
        (match Sup.current_port sup ~path with
        | Some p when not p.dead ->
            incr deaths;
            Mach.Port.destroy sys p
        | Some _ | None -> ());
        Scenario.sleep e 4_000
      done);
  let client = Mach.Kernel.task_create e.k ~name:"client" () in
  Scenario.spawn e client "caller" (fun () ->
      while not (Sup.is_degraded sup ~path) do
        Scenario.sleep e 3_000
      done;
      Scenario.sleep e 2_000;
      match Mk_services.Name_service.resolve_port ns ~path with
      | None -> ()
      | Some p -> (
          let t0 = Machine.now m in
          match Mach.Rpc.call sys p (simple_message ~payload:P_unit ()) with
          | Ok { msg_payload = P_error Kern_unavailable; _ } ->
              fastfail := Machine.now m - t0
          | Ok _ | Error _ -> fastfail := -1));
  fun () ->
    Sup.stop sup;
    {
      (base "crash-loop") with
      fp_ops = !deaths;
      fp_completed = 0;
      fp_restarts = Sup.path_restarts sup ~path;
      fp_degraded = Sup.degraded_count sup;
      fp_fastfail_cycles = !fastfail;
    }

(* --- sweep ----------------------------------------------------------------- *)

let run ?(seed = 42) ?(endpoints = 16) ?(rounds = 40) ?(victim_ops = 12)
    ?(clients = 3) ?(sessions = 6) () =
  {
    fr_seed = seed;
    fr_points =
      [
        shard_golden ~endpoints ~rounds ();
        shard_storm ~victim_ops ();
        fs_crash ~seed ~clients ~sessions ();
        fs_wedge ~seed ~clients ~sessions ();
        crash_loop ();
      ];
  }

(* --- acceptance gates ------------------------------------------------------ *)

let gates r =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 r.fr_points in
  let availability =
    List.fold_left
      (fun acc p ->
        let acc = if p.fp_in_ops > 0 then min acc p.fp_avail_in else acc in
        if p.fp_out_ops > 0 then min acc p.fp_avail_out else acc)
      1.0 r.fr_points
  in
  let golden = List.for_all (fun p -> p.fp_golden_ok) r.fr_points in
  (* -1 when the server never demoted or the client never saw
     [Kern_unavailable] *)
  let fastfail =
    match List.find_opt (fun p -> p.fp_scenario = "crash-loop") r.fr_points with
    | Some p when p.fp_degraded > 0 -> p.fp_fastfail_cycles
    | Some _ | None -> -1
  in
  Experiment.
    [ at_most "lost" (float_of_int (sum (fun p -> p.fp_lost))) 0.0;
      at_least "availability" availability 0.9;
      at_least "golden_ok" (if golden then 1.0 else 0.0) 1.0;
      at_least "fastfail_cycles_min" (float_of_int fastfail) 0.0;
      at_most "fastfail_cycles_max" (float_of_int fastfail) 100_000.0 ]

let to_json r =
  [
    ("seed", Json.int r.fr_seed);
    ( "results",
      Json.rows
        (fun p ->
          [ ("scenario", Json.Str p.fp_scenario); ("ops", Json.int p.fp_ops);
            ("completed", Json.int p.fp_completed);
            ("lost", Json.int p.fp_lost);
            ("in_window_ops", Json.int p.fp_in_ops);
            ("in_window_ok", Json.int p.fp_in_ok);
            ("out_window_ops", Json.int p.fp_out_ops);
            ("out_window_ok", Json.int p.fp_out_ok);
            ("availability_in", Json.fixed 3 p.fp_avail_in);
            ("availability_out", Json.fixed 3 p.fp_avail_out);
            ("rate_in_per_mcycle", Json.fixed 3 p.fp_rate_in);
            ("rate_out_per_mcycle", Json.fixed 3 p.fp_rate_out);
            ("fault_windows", Json.int p.fp_windows);
            ("mttr_cycles", Json.fixed 0 p.fp_mttr);
            ("restarts", Json.int p.fp_restarts);
            ("wedge_kills", Json.int p.fp_wedge_kills);
            ("degraded", Json.int p.fp_degraded);
            ("reboot_drops", Json.int p.fp_reboot_drops);
            ("reincarnations", Json.int p.fp_reincarnations);
            ("golden_ok", Json.Bool p.fp_golden_ok);
            ("fastfail_cycles", Json.int p.fp_fastfail_cycles) ])
        r.fr_points );
  ]
