(* The smp-scaling experiment: the same workloads driven at 1, 2, 4 and
   8 simulated CPUs, measuring how aggregate throughput bends as the
   shared bus saturates and how the placement policy moves the cross-CPU
   traffic.

   Two workloads:
   - [ipc]: the ipc-stress round-trip engine (IBM RPC transport), eight
     client/server pairs, under three placements:
       colocated  — each pair homed on one CPU (pair k on CPU k mod n):
                    no cross-CPU wakeups, contention is bus-only;
       crossed    — client and server of every pair on different CPUs:
                    every round trip is two LWKT wake messages + IPIs;
       unbalanced — everything spawned on CPU 0, unbound: idle CPUs pull
                    work over by stealing, after which the stolen
                    client's server wakes it cross-CPU.
   - [fileserver]: the E1-style edit-session workload against the HPFS
     file server; server and services live on the boot CPU, clients
     spread round-robin — the many-clients-one-server shape whose server
     CPU is the ceiling.

   Every point boots a fresh machine, so points are independent and the
   1-CPU column doubles as a regression anchor against the uniprocessor
   scheduler. *)

open Mach.Ktypes
module C = Fileserver.File_server.Client

type placement = Colocated | Crossed | Unbalanced

let placement_name = function
  | Colocated -> "colocated"
  | Crossed -> "crossed"
  | Unbalanced -> "unbalanced"

type point = {
  sp_workload : string;  (* "ipc" or "fileserver" *)
  sp_placement : string;
  sp_ncpus : int;
  sp_ops : int;
  sp_wall_cycles : int;  (* furthest-ahead CPU clock at completion *)
  sp_throughput : float;  (* ops per million cycles of wall clock *)
  sp_speedup : float;  (* vs the 1-CPU point of the same series *)
  sp_ipis : int;
  sp_xmsgs : int;  (* cross-CPU scheduler messages delivered *)
  sp_steals : int;
  sp_coherence_misses : int;
  sp_bus_stall_cycles : int;
  sp_bus_transactions : int;
}

type result = {
  r_cpus : int list;
  r_pairs : int;
  r_iters : int;
  r_bytes : int;
  r_clients : int;
  r_sessions : int;
  r_points : point list;
  r_state : Machine.Footprint.machine_state list;
      (* per-CPU machine-state bytes at each CPU count (density) *)
}

(* Sum an SMP counter over every CPU of the machine. *)
let sum_cpus m f =
  let acc = ref 0 in
  for i = 0 to Machine.ncpus m - 1 do
    acc := !acc + f (Machine.Cpu.perf (Machine.nth_cpu m i))
  done;
  !acc

let finish ~workload ~placement ~ops (e : Scenario.env) () =
  let m = e.m and wall = Machine.global_now e.m in
  {
    sp_workload = workload;
    sp_placement = placement;
    sp_ncpus = Machine.ncpus m;
    sp_ops = ops;
    sp_wall_cycles = wall;
    sp_throughput = Scenario.per_mcycle ops wall;
    sp_speedup = 0.0;  (* filled in once the 1-CPU anchor is known *)
    sp_ipis = sum_cpus m Machine.Perf.ipis_sent;
    sp_xmsgs = Mach.Sched.total_xmsgs e.sys;
    sp_steals = Mach.Sched.total_steals e.sys;
    sp_coherence_misses = sum_cpus m Machine.Perf.coherence_misses;
    sp_bus_stall_cycles = sum_cpus m Machine.Perf.bus_stall_cycles;
    sp_bus_transactions = Machine.Bus.transactions m.Machine.bus;
  }

(* --- workload 1: RPC round-trip pairs ---------------------------------- *)

let measure_ipc ~ncpus ~placement ~pairs ~iters ~bytes =
  Scenario.run { Scenario.base with ncpus } @@ fun e ->
  let k = e.k and sys = e.sys in
  for w = 0 to pairs - 1 do
    (* (client, server) CPUs; unbalanced pairs start unbound on CPU 0 *)
    let cpus =
      match placement with
      | Colocated -> Some (w mod ncpus, w mod ncpus)
      | Crossed -> Some (w mod ncpus, (w + 1) mod ncpus)
      | Unbalanced -> None
    in
    let client =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "client%d" w) ()
    in
    let server =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "server%d" w) ()
    in
    let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
    Scenario.spawn e server ?cpu:(Option.map snd cpus) "srv" (fun () ->
        Mach.Rpc.serve sys port (fun _msg -> simple_message ()));
    Scenario.spawn e client ?cpu:(Option.map fst cpus) "cl" (fun () ->
        for _ = 1 to iters do
          ignore (Mach.Rpc.call sys port (simple_message ~inline_bytes:bytes ()))
        done;
        Mach.Port.destroy sys port)
  done;
  finish ~workload:"ipc" ~placement:(placement_name placement)
    ~ops:(pairs * iters) e

(* --- workload 2: file-server edit sessions ------------------------------ *)

let measure_fileserver ~ncpus ~clients ~sessions =
  Scenario.run
    { Scenario.base with ncpus; boot = Services Full_naming; fs = Some 1 }
  @@ fun e ->
  (* server and boot services stay on CPU 0 (spawned there); clients
     spread round-robin over the remaining CPUs *)
  let fs = Option.get e.server in
  let completed = ref 0 in
  for c = 0 to clients - 1 do
    let client =
      Mach.Kernel.task_create e.k ~name:(Printf.sprintf "editor%d" c) ()
    in
    Scenario.spawn e client ~cpu:(c mod ncpus) "edit" (fun () ->
        let ( let* ) = Result.bind in
        for s = 1 to sessions do
          let path = Printf.sprintf "/os2/c%d_s%d.dat" c s in
          let outcome =
            let* h =
              C.open_ fs Fileserver.Vfs.os2_semantics ~path ~create:true ()
            in
            let* _n = C.write fs h (Bytes.make 256 'e') in
            C.seek fs h ~pos:0;
            let* _data = C.read fs h ~bytes:64 in
            C.close fs h;
            C.sync fs;
            Ok ()
          in
          if Result.is_ok outcome then incr completed
        done)
  done;
  fun () ->
    if !completed <> clients * sessions then
      failwith
        (Printf.sprintf "Smp_scaling: fileserver completed %d/%d sessions"
           !completed (clients * sessions));
    finish ~workload:"fileserver" ~placement:"spread"
      ~ops:(clients * sessions) e ()

(* --- sweep --------------------------------------------------------------- *)

let default_cpus = [ 1; 2; 4; 8 ]

let run ?(cpus = default_cpus) ?(pairs = 8) ?(iters = 150) ?(bytes = 512)
    ?(clients = 6) ?(sessions = 4) () =
  if cpus = [] then invalid_arg "Smp_scaling.run: empty CPU list";
  List.iter
    (fun n -> if n < 1 then invalid_arg "Smp_scaling.run: ncpus must be >= 1")
    cpus;
  let points =
    List.concat_map
      (fun ncpus ->
        [
          measure_ipc ~ncpus ~placement:Colocated ~pairs ~iters ~bytes;
          measure_ipc ~ncpus ~placement:Crossed ~pairs ~iters ~bytes;
          measure_ipc ~ncpus ~placement:Unbalanced ~pairs ~iters ~bytes;
          measure_fileserver ~ncpus ~clients ~sessions;
        ])
      cpus
  in
  {
    r_cpus = cpus;
    r_pairs = pairs;
    r_iters = iters;
    r_bytes = bytes;
    r_clients = clients;
    r_sessions = sessions;
    (* each series against its own 1-CPU point *)
    r_points =
      Scenario.speedups
        (fun p -> (p.sp_workload ^ p.sp_placement, p.sp_ncpus, p.sp_throughput))
        (fun p sp_speedup -> { p with sp_speedup })
        points;
    r_state =
      List.map (fun n -> Machine.Footprint.machine_state (Scenario.config n)) cpus;
  }

(* The headline acceptance number: colocated ipc speedup at 4 CPUs, when
   the sweep has a 4-CPU point. *)
let gates r =
  List.filter_map
    (fun pt ->
      if pt.sp_workload = "ipc" && pt.sp_placement = "colocated"
         && pt.sp_ncpus = 4
      then Some (Experiment.at_least "ipc_speedup_4cpu" pt.sp_speedup 1.5)
      else None)
    r.r_points

let to_json r =
  let ints l = Json.Arr (List.map Json.int l) in
  [
    ("cpus", ints r.r_cpus);
    ( "ipc",
      Json.Obj
        [ ("pairs", Json.int r.r_pairs); ("iters", Json.int r.r_iters);
          ("bytes", Json.int r.r_bytes) ] );
    ( "fileserver",
      Json.Obj
        [ ("clients", Json.int r.r_clients);
          ("sessions", Json.int r.r_sessions) ] );
    ( "machine_state",
      Json.rows
        (fun (ms : Machine.Footprint.machine_state) ->
          [ ("ncpus", Json.int ms.ms_ncpus);
            ("cache_bytes_per_cpu", Json.int ms.ms_cache_bytes_per_cpu);
            ("tlb_bytes_per_cpu", Json.int ms.ms_tlb_bytes_per_cpu);
            ("bus_directory_bytes", Json.int ms.ms_bus_directory_bytes);
            ("total_bytes", Json.int ms.ms_total_bytes) ])
        r.r_state );
    ( "results",
      Json.rows
        (fun p ->
          [ ("workload", Json.Str p.sp_workload);
            ("placement", Json.Str p.sp_placement);
            ("ncpus", Json.int p.sp_ncpus); ("ops", Json.int p.sp_ops);
            ("wall_cycles", Json.int p.sp_wall_cycles);
            ("throughput_ops_per_mcycle", Json.fixed 3 p.sp_throughput);
            ("speedup", Json.fixed 3 p.sp_speedup);
            ("ipis", Json.int p.sp_ipis); ("xmsgs", Json.int p.sp_xmsgs);
            ("steals", Json.int p.sp_steals);
            ("coherence_misses", Json.int p.sp_coherence_misses);
            ("bus_stall_cycles", Json.int p.sp_bus_stall_cycles);
            ("bus_transactions", Json.int p.sp_bus_transactions) ])
        r.r_points );
  ]
