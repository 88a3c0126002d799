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

(* The availability block of a row, from a ledger and the fault windows:
   each op counts inside or outside by its completion stamp.  With it,
   the worst success ratio over the two populations that have ops (1.0
   when neither has). *)
let availability ?mttr l windows ~wall =
  let inside at = List.exists (fun (a, b) -> at >= a && at <= b) windows in
  let count f = List.length (List.filter f l) in
  let iop = count (fun (at, _) -> inside at) in
  let iok = count (fun (at, ok) -> ok && inside at) in
  let oop = List.length l - iop and ook = count snd - iok in
  let wsum = window_cycles windows in
  let avail_in = ratio iok iop and avail_out = ratio ook oop in
  ( min
      (if iop > 0 then avail_in else 1.0)
      (if oop > 0 then avail_out else 1.0),
    [ ("in_window_ops", Json.int iop); ("in_window_ok", Json.int iok);
      ("out_window_ops", Json.int oop); ("out_window_ok", Json.int ook);
      ("availability_in", Json.fixed 3 avail_in);
      ("availability_out", Json.fixed 3 avail_out);
      ("rate_in_per_mcycle", Json.fixed 3 (Scenario.per_mcycle iok wsum));
      ( "rate_out_per_mcycle",
        Json.fixed 3 (Scenario.per_mcycle ook (max 0 (wall - wsum))) );
      ("fault_windows", Json.int (List.length windows));
      ( "mttr_cycles",
        Json.fixed 0 (Option.value mttr ~default:(mean_window windows)) ) ] )

(* A scenario's row, and what the gates read of it: the ops it lost,
   its worst success ratio, its golden asserts, and (crash-loop only)
   its fast-fail latency, -1 when the server never demoted. *)
type point = {
  lost : int;
  worst : float;
  golden_ok : bool;
  fastfail : int option;
  row : (string * Json.t) list;
}

let point scenario ~ops ~completed ?(lost = 0)
    ?(avail = availability [] [] ~wall:0) ?(restarts = 0) ?(wedge_kills = 0) ?(degraded = 0) ?(reboot_drops = 0)
    ?(reincarnations = 0) ?(golden_ok = true) ?fastfail () =
  let worst, avail_fields = avail in
  {
    lost;
    worst;
    golden_ok;
    fastfail = Option.map (fun c -> if degraded > 0 then c else -1) fastfail;
    row =
      [ ("scenario", Json.Str scenario); ("ops", Json.int ops);
        ("completed", Json.int completed); ("lost", Json.int lost) ]
      @ avail_fields
      @ [ ("restarts", Json.int restarts);
          ("wedge_kills", Json.int wedge_kills);
          ("degraded", Json.int degraded);
          ("reboot_drops", Json.int reboot_drops);
          ("reincarnations", Json.int reincarnations);
          ("golden_ok", Json.Bool golden_ok);
          ("fastfail_cycles", Json.int (Option.value fastfail ~default:(-1))) ];
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
  (* open loop: drops are expected, acked ops don't exist *)
  point "shard-golden" ~ops:(rounds * endpoints)
    ~completed:(Array.fold_left ( + ) 0 df)
    ~avail:(availability [] windows ~wall:0)
    ~reboot_drops:drops
    ~reincarnations:(Netserver.shard_reincarnations netf)
    ~golden_ok:!golden ()

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
    point "shard-storm" ~ops:(victim_ops * ncpus) ~completed:t.acked
      ~lost:t.lost
      ~avail:(availability !lg !windows ~wall:(Machine.global_now m))
      ~reboot_drops:(Netserver.reboot_drops net)
      ~reincarnations:(Netserver.shard_reincarnations net)
      ()

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
    (* the supervisor's own death-to-rebind MTTR when it has one *)
    point scenario ~ops:total ~completed ~lost:(total - completed)
      ~avail:
        (availability ?mttr:(Option.map float_of_int (Sup.mttr s.sup ~path))
           !lg !(s.restarts) ~wall:(Machine.global_now e.m))
      ~restarts:(Sup.path_restarts s.sup ~path)
      ~wedge_kills:(Sup.path_wedge_kills s.sup ~path)
      ~degraded:(Sup.degraded_count s.sup) ()

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
    point "crash-loop" ~ops:!deaths ~completed:0
      ~restarts:(Sup.path_restarts sup ~path)
      ~degraded:(Sup.degraded_count sup) ~fastfail:!fastfail ()

(* --- sweep ----------------------------------------------------------------- *)

let run ?(seed = 42) ?(endpoints = 16) ?(rounds = 40) ?(victim_ops = 12)
    ?(clients = 3) ?(sessions = 6) () =
  let points =
    [
      shard_golden ~endpoints ~rounds ();
      shard_storm ~victim_ops ();
      fs_crash ~seed ~clients ~sessions ();
      fs_wedge ~seed ~clients ~sessions ();
      crash_loop ();
    ]
  in
  let fastfail =
    Option.value (List.find_map (fun p -> p.fastfail) points) ~default:(-1)
  in
  Experiment.result ~seed
    ~gates:
      Experiment.
        [ at_most "lost"
            (float_of_int (List.fold_left (fun acc p -> acc + p.lost) 0 points))
            0.0;
          at_least "availability"
            (List.fold_left (fun acc p -> min acc p.worst) 1.0 points)
            0.9;
          at_least "golden_ok"
            (if List.for_all (fun p -> p.golden_ok) points then 1.0 else 0.0)
            1.0;
          at_least "fastfail_cycles_min" (float_of_int fastfail) 0.0;
          at_most "fastfail_cycles_max" (float_of_int fastfail) 100_000.0 ]
    [ ("seed", Json.int seed); ("results", Json.rows (fun p -> p.row) points) ]
