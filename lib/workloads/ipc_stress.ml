open Mach.Ktypes

(* One sustained run: [workers] client/server pairs on one machine, each
   pair doing [iters] round trips through the given transport.  The
   scheduler interleaves the pairs, so queue depths and buffer pressure
   resemble a loaded system rather than a lone ping-pong. *)
let measure ~system ~workers ~iters ~bytes =
  Scenario.run Scenario.base @@ fun e ->
  let m = e.m and k = e.k and sys = e.sys in
  for w = 1 to workers do
    let client =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "client%d" w) ()
    in
    let server =
      Mach.Kernel.task_create k ~name:(Printf.sprintf "server%d" w) ()
    in
    let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
    match system with
    | `Mach_msg ->
        Scenario.spawn e server "srv" (fun () ->
            Micro.consuming_server sys server port);
        Scenario.spawn e client "cl" (fun () ->
            let message = Micro.refilled_message sys client ~bytes in
            for _ = 1 to iters do
              ignore (Mach.Ipc.call sys port (message ()))
            done;
            Mach.Port.destroy sys port)
    | `Ibm_rpc | `Rpc_copy | `Rpc_remap ->
        Scenario.spawn e server "srv" (fun () ->
            Mach.Rpc.serve sys port (fun _msg -> simple_message ()));
        Scenario.spawn e client "cl" (fun () ->
            (* Large payloads go out of line; the RPC layer remaps
               page-aligned regions and physically copies the rest, so
               `Rpc_copy (the copy-vs-remap baseline) defeats the
               auto-selection by offsetting into the page.  Filled
               once: the remap path shares pages copy-on-write, so a
               prepared buffer can be sent over and over. *)
            let ool = bytes > Micro.ool_threshold in
            let buffer =
              if not ool then 0
              else begin
                let b =
                  Mach.Vm.allocate sys client ~bytes:(bytes + page_size) ()
                in
                Mach.Vm.touch sys client ~addr:b ~write:true ~bytes ();
                if system = `Rpc_copy then b + 32 else b
              end
            in
            let message () =
              if ool then
                simple_message ~inline_bytes:64 ~ool:[ (buffer, bytes) ] ()
              else simple_message ~inline_bytes:bytes ()
            in
            for _ = 1 to iters do
              ignore (Mach.Rpc.call sys port (message ()))
            done;
            Mach.Port.destroy sys port)
  done;
  let c0 = Machine.now m in
  let h0 = Unix.gettimeofday () in
  fun () ->
    let host_ns = (Unix.gettimeofday () -. h0) *. 1e9 in
    let ops = float_of_int (workers * iters) in
    ( float_of_int (Machine.now m - c0) /. ops,
      host_ns /. ops,
      Mach.Ipc.reply_cache_hits sys,
      Mach.Ipc.reply_cache_misses sys,
      Mach.Ktext.buffer_stats k.Mach.Kernel.ktext )

let default_sizes = [ 0; 32; 512; 4096; 16384; 65536 ]

(* Every point of the sweep: its system's name, its payload size and what
   [measure] returned for it. *)
let sweep ~workers ~iters ~sizes =
  if sizes = [] then invalid_arg "Ipc_stress.run: empty size list";
  let point system name bytes =
    (name, bytes, measure ~system ~workers ~iters ~bytes)
  in
  List.concat_map
    (fun bytes ->
      [ point `Mach_msg "mach_msg" bytes; point `Ibm_rpc "ibm_rpc" bytes ]
      @
      (* the copy-vs-remap series: same transport, same payload, the
         transfer pinned to each path (remap only engages at page
         granularity, so smaller sizes have no remap point) *)
      if bytes >= Mach.Ktypes.remap_threshold then
        [ point `Rpc_copy "rpc_copy" bytes; point `Rpc_remap "rpc_remap" bytes ]
      else [])
    sizes

let sim_cycles_per_op ?(workers = 4) ?(iters = 200) ?(sizes = default_sizes) ()
    =
  List.map
    (fun (name, bytes, (sim, _, _, _, _)) -> ((name, bytes), sim))
    (sweep ~workers ~iters ~sizes)

let run ?(workers = 4) ?(iters = 200) ?(sizes = default_sizes) () =
  let runs = sweep ~workers ~iters ~sizes in
  (* counters summed over the runs, the buffer peak their maximum *)
  let total f = List.fold_left (fun acc (_, _, run) -> f acc run) 0 runs in
  let count f = Json.int (total (fun acc run -> acc + f run)) in
  let kb f = count (fun (_, _, _, _, (kb : Mach.Ktext.buffer_stats)) -> f kb) in
  Experiment.result
    [
      ("workers", Json.int workers); ("iters", Json.int iters);
      ( "reply_cache",
        Json.Obj
          [ ("hits", count (fun (_, _, hits, _, _) -> hits));
            ("misses", count (fun (_, _, _, misses, _) -> misses)) ] );
      ( "kbuf",
        Json.Obj
          [ ("allocs", kb (fun kb -> kb.bs_allocs));
            ("frees", kb (fun kb -> kb.bs_frees));
            ("recycles", kb (fun kb -> kb.bs_recycles));
            ("resets", kb (fun kb -> kb.bs_resets));
            ( "peak_bytes",
              Json.int
                (total (fun acc (_, _, _, _, kb) ->
                     Int.max acc kb.Mach.Ktext.bs_peak_bytes)) ) ] );
      ( "results",
        Json.rows
          (fun (name, bytes, (sim, host, _, _, _)) ->
            [ ("system", Json.Str name); ("bytes", Json.int bytes);
              ("sim_cycles_per_op", Json.fixed 1 sim);
              ("host_ns_per_op", Json.fixed 1 host) ])
          runs );
    ]
