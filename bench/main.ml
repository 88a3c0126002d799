(* The benchmark harness: one experiment per table/figure of the paper
   plus the ablations called out in DESIGN.md §8, all in one registry.

     dune exec bench/main.exe               — every experiment, then machcheck
     dune exec bench/main.exe -- table2     — one experiment
     dune exec bench/main.exe -- machcheck  — the checker profile only
     dune exec bench/main.exe -- --smoke    — tiny sizes, diffed exactly
                                              against smoke/ (run in bench/)
     dune exec bench/main.exe -- ab A.json B.json [--threshold 0.05]
     dune exec bench/main.exe -- --bechamel — host-time Bechamel suite

   Each registry entry names its BENCH_*.json file and its size under
   each profile; [Experiment.run] is the one loop over it.  Gates are
   data: each result lists them, they are printed and written under
   "gates", and a failed gate, a Machcheck finding or (for --smoke) any
   leaf that differs from the checked-in baseline makes the exit status
   1.  Usage errors exit 2.

   Paper reference values are printed beside every measurement; absolute
   agreement is not expected (the substrate is a simulator, not the
   authors' testbed), the shape is what must hold. *)

open Workloads

let hr = Experiment.hr

let sized ?smoke ?machcheck full = { Experiment.full; smoke; machcheck }

(* An experiment that only prints: it runs in full runs and writes no
   file. *)
let printed name table =
  Experiment.make name (sized ignore) (fun () ->
      Experiment.result ~table [])

(* --- E1: Table 1 ----------------------------------------------------------- *)

let paper_table1 =
  [
    ("File Intensive 1", 2.96); ("File Intensive 2", 2.97);
    ("Graphics Low", 0.91); ("Graphics Medium", 0.87);
    ("Graphics High", 0.71); ("PM Tasking Medium", 0.82);
    ("PM Tasking High", 1.02);
  ]

let fresh_wpos_api () = Api.of_wpos (Wpos.boot ())

let fresh_native_api () =
  (* OS/2 Warp on a 16 MB Pentium *)
  let m = Machine.create Machine.Config.pentium_133 in
  Api.of_monolithic (Monolithic.boot m ~fs_format:`Hpfs ())

let table1_rows specs =
  List.map
    (fun spec ->
      ( spec,
        Table1.compare_systems ~wpos:(fresh_wpos_api ())
          ~native:(fresh_native_api ()) spec ))
    specs

let table1_report rows_ =
  Experiment.result
    [
      ( "rows",
        Json.rows
          (fun ((spec : Table1.spec), (row : Table1.row)) ->
            [ ("workload", Json.Str row.row_id); ("app", Json.Str spec.app);
              ("wpos_cycles", Json.int row.wpos_cycles);
              ("native_cycles", Json.int row.native_cycles);
              ("ratio", Json.fixed 3 row.ratio);
              ("paper_ratio", Json.Num (List.assoc spec.id paper_table1)) ])
          rows_ );
      ("overall", Json.fixed 3 (Table1.overall (List.map snd rows_)));
      ("paper_overall", Json.Num 1.21);
    ]

(* --- E2: Table 2 ------------------------------------------------------------ *)

(* Table 2 row by row: the measured trap and RPC counters, their ratio,
   and the paper's three rows beside them. *)
let table2_report ((trap : Micro.table2_row), (rpc : Micro.table2_row)) =
  let row label digits (i, c, b, cpi) =
    [ ("row", Json.Str label); ("instructions", Json.fixed digits i);
      ("cycles", Json.fixed digits c); ("bus_cycles", Json.fixed digits b);
      ("cpi", Json.fixed 2 cpi) ]
  in
  let counters (r : Micro.table2_row) =
    (r.t2_instructions, r.t2_cycles, r.t2_bus_cycles, r.t2_cpi)
  in
  let ratio (i, c, b, cpi) (i', c', b', cpi') =
    (i' /. i, c' /. c, b' /. b, cpi' /. cpi)
  in
  Experiment.result
    [
      ( "rows",
        Json.rows Fun.id
          [ row trap.t2_label 0 (counters trap);
            row rpc.t2_label 0 (counters rpc);
            row "ratio" 2 (ratio (counters trap) (counters rpc));
            row "paper trap" 0 (465., 970., 218., 2.0);
            row "paper RPC" 0 (1317., 5163., 1849., 3.9);
            row "paper ratio" 2 (2.83, 5.32, 8.48, 1.95) ] );
    ]

(* --- E3: the 2-10x IPC improvement ------------------------------------------ *)

let figure_ipc () =
  hr "E3: message passing, Mach 3.0 mach_msg vs the IBM RPC rework";
  let sizes = [ 0; 32; 128; 512; 1024; 4096; 16384; 65536 ] in
  let points = Workloads.Micro.ipc_sweep ~sizes () in
  Printf.printf "%10s %18s %18s %12s %16s\n" "bytes" "mach_msg cycles"
    "IBM RPC cycles" "improvement" "reply-port cache";
  List.iter
    (fun p ->
      let open Workloads.Micro in
      Printf.printf "%10d %18.0f %18.0f %11.2fx %9d/%-6d\n" p.sw_bytes
        p.sw_mach_ipc_cycles p.sw_ibm_rpc_cycles p.sw_improvement
        p.sw_reply_hits p.sw_reply_misses)
    points;
  Printf.printf "(reply-port cache column: hits/misses on the mach_msg side)\n";
  Printf.printf
    "paper: \"a two to ten times improvement in message-passing performance\n\
    \       with the improvement's magnitude depending primarily on the\n\
    \       number of bytes transmitted\"\n"

(* --- E4: Figure 1 ------------------------------------------------------------- *)

let figure1 () =
  hr "E4 / Figure 1: the IBM Microkernel and Workplace OS structure";
  let w = Wpos.boot () in
  (* put some personality applications on top so the top layer is live *)
  let api = Workloads.Api.of_wpos w in
  api.Workloads.Api.spawn ~name:"works.exe" (fun api ->
      api.Workloads.Api.compute ~units:10);
  api.Workloads.Api.spawn ~name:"klondike.exe" (fun api ->
      api.Workloads.Api.draw ~x:10 ~y:10 ~w:71 ~h:96);
  (match w.Wpos.mvm with
  | Some mvm ->
      let vdm = Personalities.Mvm.create_vdm mvm ~name:"dos-box" in
      Personalities.Mvm.spawn_program mvm vdm ~name:"autoexec"
        [ Personalities.Mvm.G_compute 2000; Personalities.Mvm.G_io_port 0x3f8 ]
  | None -> ());
  Wpos.run w;
  Format.printf "%a@." Wpos.pp_figure1 w;
  (* name-space view of the same structure *)
  let ns = Wpos.name_service w in
  let db = Mk_services.Name_service.db ns in
  Printf.printf "name space: /servers = %s; /volumes = %s\n"
    (String.concat ", " (Mk_services.Name_db.list_children db ~path:"/servers"))
    (String.concat ", " (Mk_services.Name_db.list_children db ~path:"/volumes"))

(* --- E5: the factor of 3 ------------------------------------------------------- *)

let fileserver_factor_report (f : Micro.factor) =
  (* the paper: "about a factor of 3" *)
  Experiment.result
    [ ("rpc_cycles_per_op", Json.fixed 1 f.fx_rpc_cycles_per_op);
      ("trap_cycles_per_op", Json.fixed 1 f.fx_trap_cycles_per_op);
      ("factor", Json.fixed 3 f.fx_factor); ("paper_factor", Json.int 3) ]

(* --- E6: fine-grained objects ---------------------------------------------------- *)

let finegrain () =
  hr "E6: fine-grained (Taligent) vs coarse (MK++) object networking";
  let run style =
    let m = Machine.create Machine.Config.pentium_133 in
    let k = Mach.Kernel.boot m in
    let net = Netserver.create k ~style in
    let app = Mach.Kernel.task_create k ~name:"app" () in
    let echo = Mach.Kernel.task_create k ~name:"echo" () in
    let datagrams = 200 in
    let cycles = ref 0 in
    ignore
      (Mach.Kernel.thread_spawn k echo ~name:"echo" (fun () ->
           match Netserver.udp_socket net ~port:7 with
           | Error e -> failwith e
           | Ok s ->
               for _ = 1 to datagrams do
                 let src, bytes = Netserver.udp_recv net s in
                 Netserver.udp_send net s ~dst_port:src ~bytes
               done)
        : Mach.Ktypes.thread);
    ignore
      (Mach.Kernel.thread_spawn k app ~name:"client" (fun () ->
           match Netserver.udp_socket net ~port:2000 with
           | Error e -> failwith e
           | Ok s ->
               let t0 = Machine.now m in
               for _ = 1 to datagrams do
                 Netserver.udp_send net s ~dst_port:7 ~bytes:256;
                 ignore (Netserver.udp_recv net s)
               done;
               cycles := (Machine.now m - t0) / datagrams)
        : Mach.Ktypes.thread);
    Mach.Kernel.run k;
    ( !cycles,
      Finegrain.vcalls (Netserver.objects net),
      Finegrain.memory_footprint_bytes (Netserver.objects net) )
  in
  let fc, fv, fm = run Finegrain.Fine_grained in
  let cc, cv, cm = run Finegrain.Coarse in
  Printf.printf "%-22s %16s %12s %16s\n" "" "cycles/datagram" "dispatches"
    "runtime bytes";
  Printf.printf "%-22s %16d %12d %16d\n" "fine-grained (shipped)" fc fv fm;
  Printf.printf "%-22s %16d %12d %16d\n" "coarse (MK++ style)" cc cv cm;
  Printf.printf
    "slowdown %.2fx, dispatch inflation %.1fx, memory inflation %.1fx\n"
    (float_of_int fc /. float_of_int cc)
    (float_of_int fv /. float_of_int cv)
    (float_of_int fm /. float_of_int cm);
  Printf.printf
    "paper: \"a very large number of very short virtual methods ... slowed the\n\
    \       system down ... C++ runtimes ... consumed considerable amounts of memory\"\n"

(* --- E7: two memory managers ------------------------------------------------------ *)

let memfootprint () =
  hr "E7: OS/2 commitment-oriented memory over the page-oriented kernel VM";
  let m = Machine.create Machine.Config.ppc604_133 in
  let services = Mk_services.Bootstrap.boot m in
  let k = services.Mk_services.Bootstrap.kernel in
  let sys = k.Mach.Kernel.sys in
  (* the same allocation trace both ways: a spread of object sizes, only
     half of each object ever touched *)
  let trace = List.init 40 (fun i -> 700 + (i * 1337 mod 20000)) in
  let os2_task = Mach.Kernel.task_create k ~name:"os2app" () in
  let os2_mem = Personalities.Os2_memory.create k os2_task in
  let lazy_task = Mach.Kernel.task_create k ~name:"pnapp" () in
  let done_ = ref false in
  ignore
    (Mach.Kernel.thread_spawn k lazy_task ~name:"driver" (fun () ->
         List.iter
           (fun bytes ->
             (* OS/2 path: committed eagerly, byte bookkeeping on top *)
             (match Personalities.Os2_memory.dos_alloc_mem os2_mem ~bytes with
             | Ok addr ->
                 Mach.Vm.touch sys os2_task ~addr ~write:true
                   ~bytes:(max 1 (bytes / 2)) ()
             | Error _ -> ());
             (* kernel-lazy path: pages appear only when touched *)
             let addr = Mach.Vm.allocate sys lazy_task ~bytes () in
             Mach.Vm.touch sys lazy_task ~addr ~write:true
               ~bytes:(max 1 (bytes / 2)) ())
           trace;
         done_ := true)
      : Mach.Ktypes.thread);
  Mach.Kernel.run k;
  assert !done_;
  let os2_bytes =
    Personalities.Os2_memory.os2_committed_bytes os2_mem
    + Personalities.Os2_memory.bookkeeping_bytes os2_mem
  in
  let lazy_bytes = Mach.Vm.committed_bytes lazy_task in
  let requested = List.fold_left ( + ) 0 trace in
  Printf.printf
    "requested by the application : %8d bytes\n\
     kernel-lazy resident         : %8d bytes\n\
     OS/2 committed + bookkeeping : %8d bytes\n\
     footprint inflation          : %8.2fx  (paper: \"greatly increased the\n\
    \                                         memory footprint\")\n"
    requested lazy_bytes os2_bytes
    (float_of_int os2_bytes /. float_of_int lazy_bytes)

(* --- E8: driver architectures ------------------------------------------------------- *)

let drivers () =
  hr "E8 (ablation): the same disk work under three driver architectures";
  let run arch =
    let m = Machine.create Machine.Config.pentium_133 in
    let k = Mach.Kernel.boot m in
    let rm = Drivers.Resource_manager.create k in
    let d =
      match Drivers.Disk_driver.start k rm ~arch with
      | Ok d -> d
      | Error e -> failwith e
    in
    let app = Mach.Kernel.task_create k ~name:"app" () in
    let requests = 50 in
    let cycles = ref 0 in
    ignore
      (Mach.Kernel.thread_spawn k app ~name:"reader" (fun () ->
           ignore (Drivers.Disk_driver.read_blocks d ~block:0 ~count:4);
           let t0 = Machine.now m in
           for i = 1 to requests do
             ignore
               (Drivers.Disk_driver.read_blocks d ~block:(i * 8 mod 1024)
                  ~count:4)
           done;
           cycles := (Machine.now m - t0) / requests)
        : Mach.Ktypes.thread);
    Mach.Kernel.run k;
    (!cycles, Drivers.Disk_driver.interrupts_taken d)
  in
  let uc, ui = run Drivers.Disk_driver.User_level in
  let kc, ki = run Drivers.Disk_driver.Kernel_bsd in
  let oc, oi = run Drivers.Disk_driver.Ooddm in
  (* elapsed time is dominated by media time; the architecture shows in
     the CPU overhead beyond it *)
  let g = Machine.Disk.default_geometry in
  let media =
    g.Machine.Disk.seek_cycles + (4 * g.Machine.Disk.transfer_cycles_per_block)
  in
  Printf.printf "%-22s %16s %12s %14s\n" "" "cycles/request" "interrupts"
    "CPU overhead";
  Printf.printf "%-22s %16d %12d %14d\n" "user-level (initial)" uc ui (uc - media);
  Printf.printf "%-22s %16d %12d %14d\n" "in-kernel BSD-style" kc ki (kc - media);
  Printf.printf "%-22s %16d %12d %14d\n" "OODDM (fine objects)" oc oi (oc - media);
  Printf.printf
    "CPU overhead vs in-kernel: user-level %.2fx, OODDM %.2fx\n\
     (media time %d cycles/request dominates all three end to end)\n"
    (float_of_int (uc - media) /. float_of_int (kc - media))
    (float_of_int (oc - media) /. float_of_int (kc - media))
    media

(* --- E9: naming ---------------------------------------------------------------------- *)

let nameservice () =
  hr "E9 (ablation): X.500-style name service vs the Release 2 simple one";
  let ops = 200 in
  (* boot with the given naming, register 20 devices, time [ops] lookups *)
  let measure ?naming register lookup =
    let m = Machine.create Machine.Config.pentium_133 in
    let b = Mk_services.Bootstrap.boot ?naming m in
    let k = b.Mk_services.Bootstrap.kernel in
    let app = Mach.Kernel.task_create k ~name:"app" () in
    let cycles = ref 0 in
    ignore
      (Mach.Kernel.thread_spawn k app ~name:"app" (fun () ->
           let p = Mach.Port.allocate k.Mach.Kernel.sys ~receiver:app ~name:"p" in
           for i = 1 to 20 do
             register b (Printf.sprintf "dev%02d" i) p
           done;
           let t0 = Machine.now m in
           for i = 1 to ops do
             lookup b (Printf.sprintf "dev%02d" ((i mod 20) + 1))
           done;
           cycles := (Machine.now m - t0) / ops)
        : Mach.Ktypes.thread);
    Mach.Kernel.run k;
    !cycles
  in
  let open Mk_services in
  let x500 =
    let ns = Bootstrap.name_service_exn in
    measure
      (fun b dev p ->
        ignore
          (Name_service.bind (ns b) ~path:("/servers/devices/" ^ dev)
             ~attributes:[ ("class", "char") ]
             ~target:p ()))
      (fun b dev ->
        ignore
          (Name_service.resolve_port (ns b) ~path:("/servers/devices/" ^ dev)))
  in
  let simple =
    let names b = Option.get b.Bootstrap.simple_names in
    measure ~naming:Bootstrap.Simple_naming
      (fun b name p -> ignore (Name_simple.register (names b) ~name p))
      (fun b name -> ignore (Name_simple.lookup (names b) ~name))
  in
  Printf.printf
    "X.500-style : %7d cycles/lookup (RPC + parse + walk + attributes)\n\
     simple      : %7d cycles/lookup (in-library flat table)\n\
     ratio       : %7.1fx  (why Release 2 added the simple service)\n"
    x500 simple
    (float_of_int x500 /. float_of_int simple)

(* --- the registry ------------------------------------------------------------ *)

(* Every experiment, in run order, with its size under each profile.
   Smoke sizes are throwaway iteration counts whose output is diffed
   exactly against bench/smoke/; machcheck sizes run the stress
   workloads under the checker. *)
let registry =
  let open Experiment in
  [
    make ~file:"BENCH_table1.json" "table1"
      (sized
         ~smoke:(fun () ->
           table1_rows
             (List.filter_map Table1.find
                [ "Graphics Low"; "PM Tasking Medium" ]))
         (fun () -> table1_rows Table1.all))
      table1_report;
    make ~file:"BENCH_table2.json" "table2"
      (sized
         ~smoke:(fun () -> Micro.table2 ~iters:20 ())
         (fun () -> Micro.table2 ()))
      table2_report;
    printed "figure-ipc" figure_ipc;
    make ~file:"BENCH_ipc.json" "ipc-stress"
      (sized
         ~smoke:(fun () ->
           Ipc_stress.run ~workers:1 ~iters:3 ~sizes:[ 0; 4096 ] ~checks:true ())
         ~machcheck:(fun () -> Ipc_stress.run ~checks:true ())
         (fun () -> Ipc_stress.run ()))
      (fun r -> result ?check:r.r_check (Ipc_stress.to_json r));
    make ~file:"BENCH_faults.json" "fault-sweep"
      (sized
         ~smoke:(fun () ->
           Fault_sweep.run ~clients:1 ~sessions:2 ~rates:[ 10_000 ] ~checks:true
             ())
         ~machcheck:(fun () -> Fault_sweep.run ~checks:true ())
         (fun () -> Fault_sweep.run ()))
      (fun r ->
        result ~seed:r.r_seed ?check:r.r_check (Fault_sweep.to_json r));
    make ~file:"BENCH_recovery.json" "recovery-sweep"
      (sized
         ~smoke:(fun () ->
           Recovery_sweep.run ~ops:4 ~max_points:12 ~series:[ 4 ] ~checks:true
             ())
         ~machcheck:(fun () ->
           Recovery_sweep.run ~ops:8 ~max_points:32 ~checks:true ())
         (* exhaustive: the cap sits far above the script's write count,
            so every single crash point is enumerated, none sampled *)
         (fun () -> Recovery_sweep.run ~max_points:1024 ()))
      (fun r ->
        result ~seed:r.r_seed ?check:r.r_check ~gates:(Recovery_sweep.gates r)
          (Recovery_sweep.to_json r));
    make ~file:"BENCH_smp.json" "smp-scaling"
      (sized
         ~smoke:(fun () ->
           Smp_scaling.run ~cpus:[ 1; 2 ] ~pairs:2 ~iters:5 ~bytes:256
             ~clients:2 ~sessions:1 ~checks:true ())
         (fun () -> Smp_scaling.run ()))
      (fun r ->
        result ?check:r.r_check ~gates:(Smp_scaling.gates r)
          (Smp_scaling.to_json r));
    make ~file:"BENCH_vfs.json" "vfs-walk"
      (sized
         ~smoke:(fun () ->
           Vfs_walk.run ~depth:5 ~files:6 ~repeats:2 ~cpus:2 ~checks:true ())
         ~machcheck:(fun () -> Vfs_walk.run ~checks:true ())
         (fun () -> Vfs_walk.run ~checks:true ()))
      (fun r ->
        result ?check:r.r_check ~gates:(Vfs_walk.gates r) (Vfs_walk.to_json r));
    make ~file:"BENCH_net.json" "net-storm"
      (sized
         ~smoke:(fun () ->
           Net_storm.run ~cpus:[ 1; 2 ] ~endpoints:6 ~clients:50 ~packets:400
             ~sessions:2 ~flood_syns:30 ~victim_ops:2 ~checks:true ())
         ~machcheck:(fun () ->
           Net_storm.run ~cpus:[ 1; 4 ] ~endpoints:8 ~clients:400
             ~packets:1_200 ~sessions:4 ~flood_syns:48 ~victim_ops:3
             ~checks:true ())
         (fun () -> Net_storm.run ~checks:true ()))
      (fun r ->
        result ?check:r.nr_check ~gates:(Net_storm.gates r)
          (Net_storm.to_json r));
    make ~file:"BENCH_storm.json" "fault-storm"
      (sized
         ~smoke:(fun () ->
           Fault_storm.run ~endpoints:6 ~rounds:16 ~victim_ops:3 ~clients:1
             ~sessions:2 ~checks:true ())
         ~machcheck:(fun () ->
           Fault_storm.run ~endpoints:6 ~rounds:16 ~victim_ops:4 ~clients:2
             ~sessions:2 ~checks:true ())
         (fun () -> Fault_storm.run ~checks:true ()))
      (fun r ->
        result ~seed:r.fr_seed ?check:r.fr_check ~gates:(Fault_storm.gates r)
          (Fault_storm.to_json r));
    printed "figure1" figure1;
    make ~file:"BENCH_factor.json" "fileserver-factor"
      (sized
         ~smoke:(fun () -> Micro.fileserver_factor ~ops:20 ())
         (fun () -> Micro.fileserver_factor ()))
      fileserver_factor_report;
    printed "finegrain" finegrain;
    printed "memfootprint" memfootprint;
    printed "drivers" drivers;
    printed "nameservice" nameservice;
  ]

(* --- ab: regression diff between two BENCH_*.json runs ----------------------- *)

let bench_ab ~a ~b ~threshold =
  hr (Printf.sprintf "ab: %s -> %s" a b);
  match Bench_ab.compare_files ~a ~b ~threshold with
  | Error e ->
      Printf.eprintf "ab: %s\n" e;
      exit 2
  | Ok v ->
      Format.printf "%a@?" Bench_ab.pp_verdict v;
      if v.Bench_ab.v_regressions > 0 then 1 else 0

(* The per-line memory-hierarchy path alone: 1000 warm fetch+load+store
   triples per run, spread round-robin over the CPUs of a pentium_133
   with [ncpus] processors.  With more than one CPU every line is shared,
   so loads pay coherence transfers and stores book bus demand; the bus is
   reset per run so its tables do not grow with the run count. *)
let machine_fetch_load_store ~ncpus:n =
  let open Machine in
  let config = { Config.pentium_133 with Config.ncpus = n } in
  let bus = Bus.create ~ncpus:n in
  let cpus = Array.init n (fun id -> Cpu.create ~id ~bus config) in
  let layout = Layout.create config in
  let code = Layout.alloc layout ~name:"code" ~kind:Layout.Code ~size:4096 in
  let data = Layout.alloc layout ~name:"data" ~kind:Layout.Data ~size:4096 in
  fun () ->
    Bus.reset bus;
    for i = 0 to 999 do
      let cpu = cpus.(i mod n) and off = i * 64 mod 2048 in
      Cpu.fetch cpu code ~offset:off ~bytes:64;
      Cpu.load cpu ~addr:(data.Layout.base + off) ~bytes:32;
      Cpu.store cpu ~addr:(data.Layout.base + off) ~bytes:32
    done

(* host-time measurements of the experiment cores, one Bechamel test per
   table/figure, plus the machine model's per-line path *)
let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let quick name f = Test.make ~name (Staged.stage f) in
  let test =
    Test.make_grouped ~name:"wpos-repro"
      [
        quick "table2" (fun () ->
            ignore (Workloads.Micro.table2 ~iters:200 ()));
        quick "figure-ipc:1k" (fun () ->
            ignore (Workloads.Micro.ipc_sweep ~iters:50 ~sizes:[ 1024 ] ()));
        quick "fileserver-factor" (fun () ->
            ignore (Workloads.Micro.fileserver_factor ~ops:50 ()));
        quick "table1:file-intensive-1" (fun () ->
            let spec = List.nth Workloads.Table1.all 0 in
            ignore (Workloads.Table1.run (fresh_native_api ()) spec));
        quick "machine:fetch-load-store:1cpu" (machine_fetch_load_store ~ncpus:1);
        quick "machine:fetch-load-store:4cpu" (machine_fetch_load_store ~ncpus:4);
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns_per_run ] ->
          Printf.printf "%-32s %12.0f ns/run (host time)\n" name ns_per_run
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    results

let () =
  let status =
    match List.tl (Array.to_list Sys.argv) with
    | "--bechamel" :: _ ->
        bechamel ();
        0
    | "--smoke" :: _ ->
        (* the outputs land in the working directory: refuse to run
           anywhere but next to the baselines (bench/, or its copy in the
           build tree), never over the full-size files at the root *)
        if not (Sys.file_exists "smoke" && Sys.is_directory "smoke") then begin
          prerr_endline "--smoke: no smoke/ baselines here; run it in bench/";
          exit 2
        end;
        hr "smoke: tiny sizes, diffed exactly against the smoke/ baselines";
        Experiment.run Smoke registry
    | "machcheck" :: _ ->
        hr "machcheck: every checker over the stress workloads";
        Experiment.run Machcheck registry
    | "ab" :: a :: b :: rest ->
        let threshold =
          match rest with
          | "--threshold" :: v :: _ -> (
              match float_of_string_opt v with
              | Some f when f >= 0.0 -> f
              | _ ->
                  Printf.eprintf "ab: bad threshold %S\n" v;
                  exit 2)
          | _ -> 0.05
        in
        bench_ab ~a ~b ~threshold
    | "ab" :: _ ->
        Printf.eprintf
          "usage: main.exe ab A.json B.json [--threshold 0.05]\n\
           exits 1 when B regresses against A past the threshold\n";
        exit 2
    | name :: _ -> (
        match
          List.filter (fun (e : Experiment.entry) -> e.name = name) registry
        with
        | [] ->
            Printf.eprintf "unknown experiment %S; available: %s\n" name
              (String.concat ", "
                 ("machcheck"
                 :: List.map (fun (e : Experiment.entry) -> e.name) registry));
            exit 2
        | entries -> Experiment.run Full entries)
    | [] ->
        let full = Experiment.run Full registry in
        hr "machcheck: every checker over the stress workloads";
        max full (Experiment.run Machcheck registry)
  in
  exit status
