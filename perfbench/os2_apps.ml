(* os2-apps: the seven Table 1 rows, each on a freshly booted WPOS and
   on the native monolithic comparator, 1 simulated CPU, closed loop.

   Why: it is the paper's own yardstick.  It runs the personality ->
   RPC -> file server path (the File Intensive rows: read-heavy, no
   sync), PM message queues, and user-level drawing and touching through
   the I-cache and TLB (the Graphics rows).  A change to the RPC path or
   to I-cache behaviour shows here and in [wpos_native_ratio].

   The rows are fixed by the paper reproduction, so this workload
   ignores the seed.  Caches start as boot leaves them, as in Table 1.
   Each row boots both systems the way the Table 1 experiment does:
   [Wpos.boot ()] with its default configuration, and
   [Monolithic.boot] with HPFS on a uniprocessor Pentium.

   Every [Api] call is wrapped from outside, so each service call is
   timed on the caller's CPU clock (the only CPU).  The latency samples
   are the WPOS file, queue and alloc calls. *)

open Common
module Api = Workloads.Api
module Table1 = Workloads.Table1

(* The paper's Table 1 ratios, printed beside the simulated ones. *)
let paper =
  [
    ("File Intensive 1", 2.96);
    ("File Intensive 2", 2.97);
    ("Graphics Low", 0.91);
    ("Graphics Medium", 0.87);
    ("Graphics High", 0.71);
    ("PM Tasking Medium", 0.82);
    ("PM Tasking High", 1.02);
  ]

let paper_overall = 1.21

let service_ops =
  [ "f_open"; "f_read"; "f_write"; "f_seek"; "f_close"; "f_unlink"; "q_post"; "q_wait"; "alloc" ]

type side = {
  costs : op_costs;
  lat : samples;  (* service calls only *)
  mutable errors : string list;
  mutable started : int;
  mutable finished : int;
}

let side () =
  { costs = op_costs (); lat = samples (); errors = []; started = 0; finished = 0 }

(* [api] with every call timed and traced.  [layer] names the layer the
   service calls enter: the OS/2 personality on WPOS, the kernel on the
   monolithic system. *)
let wrap ~layer side (api : Api.t) =
  let m = api.Api.machine in
  let timed ?(layer = layer) name f =
    let t0 = Machine.now m in
    let r = Trace.call ~machine:m ~layer name f in
    let dt = Machine.now m - t0 in
    add_cost side.costs name dt;
    if List.mem name service_ops then note side.lat dt;
    r
  in
  let error fmt = Printf.ksprintf (fun s -> side.errors <- s :: side.errors) fmt in
  let rec w =
    {
      api with
      Api.spawn =
        (fun ~name body ->
          side.started <- side.started + 1;
          api.Api.spawn ~name (fun _ ->
              body w;
              side.finished <- side.finished + 1));
      f_open =
        (fun ~path ~create ->
          let r = timed "f_open" (fun () -> api.Api.f_open ~path ~create) in
          (match r with Error e -> error "open %s: %s" path e | Ok _ -> ());
          r);
      f_read = (fun h ~bytes -> timed "f_read" (fun () -> api.Api.f_read h ~bytes));
      f_write =
        (fun h ~bytes ->
          let n = timed "f_write" (fun () -> api.Api.f_write h ~bytes) in
          if n <> bytes then error "short write %d/%d" n bytes;
          n);
      f_seek = (fun h ~pos -> timed "f_seek" (fun () -> api.Api.f_seek h ~pos));
      f_close = (fun h -> timed "f_close" (fun () -> api.Api.f_close h));
      f_unlink = (fun ~path -> timed "f_unlink" (fun () -> api.Api.f_unlink ~path));
      alloc = (fun ~bytes -> timed "alloc" (fun () -> api.Api.alloc ~bytes));
      touch =
        (fun ~addr ~write ~bytes ->
          timed ~layer:"mach" "touch" (fun () -> api.Api.touch ~addr ~write ~bytes));
      compute =
        (fun ~units -> timed ~layer:"machine" "compute" (fun () -> api.Api.compute ~units));
      draw = (fun ~x ~y ~w ~h -> timed "draw" (fun () -> api.Api.draw ~x ~y ~w ~h));
      make_queue = (fun ~name -> timed "make_queue" (fun () -> api.Api.make_queue ~name));
      q_post = (fun q v -> timed "q_post" (fun () -> api.Api.q_post q v));
      q_wait = (fun q -> timed "q_wait" (fun () -> api.Api.q_wait q));
      yield = (fun () -> timed ~layer:"mach" "yield" api.Api.yield);
    }
  in
  w

(* Run one row on one system; returns its elapsed cycles. *)
let run_row side spec api =
  let started = side.started and finished = side.finished in
  let cycles =
    match
      Trace.timed ~machine:api.Api.machine ~layer:"mach" spec.Table1.id (fun () ->
          Table1.run api spec)
    with
    | c -> c
    | exception e ->
        side.errors <-
          Printf.sprintf "%s on %s: %s" spec.Table1.id api.Api.api_name (Printexc.to_string e)
          :: side.errors;
        0
  in
  if side.finished - finished <> side.started - started || side.started = started then
    side.errors <-
      Printf.sprintf "%s on %s: %d of %d processes finished" spec.Table1.id api.Api.api_name
        (side.finished - finished) (side.started - started)
      :: side.errors;
  cycles

type fs_probe = { requests : int; nc_hits : int; nc_lookups : int }

let fs_probe (w : Wpos.t) =
  let ns = Fileserver.Vfs.cache_stats w.Wpos.vfs in
  let hits = ns.Fileserver.Namecache.cs_hits + ns.Fileserver.Namecache.cs_neg_hits in
  {
    requests = Fileserver.File_server.requests_served w.Wpos.file_server;
    nc_hits = hits;
    nc_lookups = hits + ns.Fileserver.Namecache.cs_misses;
  }

let run () =
  let wpos = side () and native = side () in
  let counters = ref (zero_counters 1) in
  let fs = ref { requests = 0; nc_hits = 0; nc_lookups = 0 } in
  let problems = ref [] in
  let native_instr = ref 0 in
  let rows =
    List.map
      (fun spec ->
        let w = Trace.setup ~layer:"core" "Wpos.boot" (fun () -> Wpos.boot ()) in
        let sys = w.Wpos.kernel.Mach.Kernel.sys in
        let c0 = snap w.Wpos.machine sys and f0 = fs_probe w in
        let wpos_cycles = run_row wpos spec (wrap ~layer:"personalities" wpos (Api.of_wpos w)) in
        let d = diff (snap w.Wpos.machine sys) c0 and f1 = fs_probe w in
        problems := check_busy_idle ~what:("os2-apps " ^ spec.Table1.id) d @ !problems;
        counters := accumulate !counters d;
        fs :=
          {
            requests = !fs.requests + f1.requests - f0.requests;
            nc_hits = !fs.nc_hits + f1.nc_hits - f0.nc_hits;
            nc_lookups = !fs.nc_lookups + f1.nc_lookups - f0.nc_lookups;
          };
        let mono =
          Trace.setup ~layer:"monolithic" "Monolithic.boot" (fun () ->
              Monolithic.boot (Machine.create Machine.Config.pentium_133) ~fs_format:`Hpfs ())
        in
        let mm = Monolithic.machine mono and msys = (Monolithic.kernel mono).Mach.Kernel.sys in
        let n0 = snap mm msys in
        let native_cycles =
          run_row native spec (wrap ~layer:"monolithic" native (Api.of_monolithic mono))
        in
        native_instr :=
          !native_instr + (diff (snap mm msys) n0).perf.Machine.Perf.instructions;
        {
          Table1.row_id = spec.Table1.id;
          wpos_cycles;
          native_cycles;
          ratio = rate wpos_cycles native_cycles;
        })
      Table1.all
  in
  let wpos_total = List.fold_left (fun acc r -> acc + r.Table1.wpos_cycles) 0 rows in
  let overall = Table1.overall rows in
  let service_calls = List.fold_left (fun acc op -> acc + count wpos.costs op) 0 service_ops in
  let elapsed_mc = float_of_int wpos_total /. 1e6 in
  let e2e =
    [
      metric "sim_elapsed_mcycles" "Mcycles" elapsed_mc;
      metric "wpos_native_ratio" "ratio" overall;
      metric "max_rate_at_slo" ops_unit (float_of_int service_calls /. elapsed_mc);
    ]
    @ latency_metrics wpos.lat
  in
  let per_op =
    List.concat_map
      (fun op ->
        [
          metric (Printf.sprintf "personalities.%s.kcycles_wpos" op) "kcycles"
            (mean_kcycles wpos.costs op);
          metric (Printf.sprintf "personalities.%s.kcycles_native" op) "kcycles"
            (mean_kcycles native.costs op);
        ])
      [ "f_open"; "f_read"; "f_write"; "f_close"; "f_unlink"; "q_post"; "q_wait"; "alloc" ]
  in
  let layer =
    machine_metrics !counters
    @ [
        metric "fileserver.requests" "count" (float_of_int !fs.requests);
        metric "fileserver.ncache_hit_rate" "ratio" (rate !fs.nc_hits !fs.nc_lookups);
        metric "lat_samples" "count" (float_of_int wpos.lat.n);
      ]
    @ per_op
  in
  let row_note r =
    Printf.sprintf "  %-18s WPOS %10d  native %10d cycles  ratio %5.2f  (paper %.2f)"
      r.Table1.row_id r.Table1.wpos_cycles r.Table1.native_cycles r.Table1.ratio
      (List.assoc r.Table1.row_id paper)
  in
  let calls s = Common.total_count s.costs in
  {
    e2e;
    layer;
    attempted = calls wpos + calls native;
    failed = List.length wpos.errors + List.length native.errors;
    problems =
      List.rev wpos.errors @ List.rev native.errors @ List.rev !problems
      @ latency_problems ~what:"os2-apps" wpos.lat;
    instructions = !counters.perf.Machine.Perf.instructions + !native_instr;
    notes =
      ("os2-apps: Table 1 (simulated cycles)" :: List.map row_note rows)
      @ [
          Printf.sprintf
            "  Overall (geometric mean) %.3f against the paper's %.2f: error %+.1f%%"
            overall paper_overall
            (100.0 *. (overall -. paper_overall) /. paper_overall);
        ];
  }
