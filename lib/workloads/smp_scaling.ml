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

(* Sum an SMP counter over every CPU of the machine. *)
let sum_cpus m f =
  let acc = ref 0 in
  for i = 0 to Machine.ncpus m - 1 do
    acc := !acc + f (Machine.Cpu.perf (Machine.nth_cpu m i))
  done;
  !acc

(* A point's series, CPU count and throughput, and its row given its
   speedup, with the headline gate when it is the colocated ipc point at
   4 CPUs. *)
let finish ~workload ~placement ~ops (e : Scenario.env) () =
  (* wall: the furthest-ahead CPU clock at completion *)
  let m = e.m and wall = Machine.global_now e.m in
  let ncpus = Machine.ncpus m and throughput = Scenario.per_mcycle ops wall in
  let counters =
    [ ("ipis", Json.int (sum_cpus m Machine.Perf.ipis_sent));
      ("xmsgs", Json.int (Mach.Sched.total_xmsgs e.sys));
      ("steals", Json.int (Mach.Sched.total_steals e.sys));
      ("coherence_misses", Json.int (sum_cpus m Machine.Perf.coherence_misses));
      ("bus_stall_cycles", Json.int (sum_cpus m Machine.Perf.bus_stall_cycles));
      ("bus_transactions", Json.int (Machine.Bus.transactions m.Machine.bus)) ]
  in
  ( workload ^ placement,
    ncpus,
    throughput,
    fun speedup ->
      ( (if workload = "ipc" && placement = "colocated" && ncpus = 4 then
           [ Experiment.at_least "ipc_speedup_4cpu" speedup 1.5 ]
         else []),
        [ ("workload", Json.Str workload); ("placement", Json.Str placement);
          ("ncpus", Json.int ncpus); ("ops", Json.int ops);
          ("wall_cycles", Json.int wall);
          ("throughput_ops_per_mcycle", Json.fixed 3 throughput);
          ("speedup", Json.fixed 3 speedup) ]
        @ counters ) )

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
    (* each series against its own 1-CPU point *)
    Scenario.speedups
      (List.concat_map
         (fun ncpus ->
           [
             measure_ipc ~ncpus ~placement:Colocated ~pairs ~iters ~bytes;
             measure_ipc ~ncpus ~placement:Crossed ~pairs ~iters ~bytes;
             measure_ipc ~ncpus ~placement:Unbalanced ~pairs ~iters ~bytes;
             measure_fileserver ~ncpus ~clients ~sessions;
           ])
         cpus)
  in
  Experiment.result ~gates:(List.concat_map fst points)
    [
      ("cpus", Json.Arr (List.map Json.int cpus));
      ( "ipc",
        Json.Obj
          [ ("pairs", Json.int pairs); ("iters", Json.int iters);
            ("bytes", Json.int bytes) ] );
      ( "fileserver",
        Json.Obj
          [ ("clients", Json.int clients); ("sessions", Json.int sessions) ] );
      ( "machine_state",
        (* per-CPU machine-state bytes at each CPU count (density) *)
        Json.rows
          (fun n ->
            let ms = Machine.Footprint.machine_state (Scenario.config n) in
            [ ("ncpus", Json.int ms.ms_ncpus);
              ("cache_bytes_per_cpu", Json.int ms.ms_cache_bytes_per_cpu);
              ("tlb_bytes_per_cpu", Json.int ms.ms_tlb_bytes_per_cpu);
              ("bus_directory_bytes", Json.int ms.ms_bus_directory_bytes);
              ("total_bytes", Json.int ms.ms_total_bytes) ])
          cpus );
      ("results", Json.rows snd points);
    ]
