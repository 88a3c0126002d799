open Mach.Ktypes

type table2_row = {
  t2_label : string;
  t2_instructions : float;
  t2_cycles : float;
  t2_bus_cycles : float;
  t2_cpi : float;
}

let per_op (d : Machine.Perf.snapshot) iters =
  let f x = float_of_int x /. float_of_int iters in
  ( f d.Machine.Perf.instructions,
    f d.Machine.Perf.cycles,
    f d.Machine.Perf.bus_cycles,
    Machine.Perf.cpi d )

let snapshot m = Machine.Perf.snapshot (Machine.Cpu.perf m.Machine.cpu)

let table2 ?(iters = 2000) () =
  Scenario.run Scenario.base @@ fun e ->
  let m = e.m and k = e.k and sys = e.sys in
  let client = Mach.Kernel.task_create k ~name:"client" ~personality:"bench" () in
  let server = Mach.Kernel.task_create k ~name:"server" ~personality:"bench" () in
  let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  Scenario.spawn e server "srv" (fun () ->
      Mach.Rpc.serve sys port (fun _ -> simple_message ()));
  let trap = ref Machine.Perf.zero and rpc = ref Machine.Perf.zero in
  (* the counters over [iters] calls of [f], after 200 warm-up calls *)
  let timed f =
    for _ = 1 to 200 do
      f ()
    done;
    let t0 = snapshot m in
    for _ = 1 to iters do
      f ()
    done;
    Machine.Perf.diff (snapshot m) t0
  in
  Scenario.spawn e client "cl" (fun () ->
      trap := timed (fun () -> ignore (Mach.Trap.thread_self sys));
      (* a null RPC's ack is the bare [P_unit]: acknowledge it
         explicitly so the round-trip being timed is the successful
         protocol, not whatever the server happened to answer *)
      rpc :=
        timed (fun () ->
            match Mach.Rpc.call sys port (simple_message ~inline_bytes:32 ()) with
            | Ok { msg_payload = P_unit; _ } -> ()
            | Ok _ | Error _ -> ());
      Mach.Port.destroy sys port);
  fun () ->
    let row label d =
      let i, c, b, cpi = per_op d iters in
      { t2_label = label; t2_instructions = i; t2_cycles = c; t2_bus_cycles = b;
        t2_cpi = cpi }
    in
    (row "thread_self" !trap, row "32-byte RPC" !rpc)

(* --- E3: the 2-10x message-passing improvement ----------------------------- *)

let ool_threshold = 1024

type sweep_point = {
  sw_bytes : int;
  sw_mach_ipc_cycles : float;
  sw_ibm_rpc_cycles : float;
  sw_improvement : float;
  sw_reply_hits : int;
  sw_reply_misses : int;
}

(* Mach's side of the message-size experiments: the client owns a
   reusable buffer which it refills (write-touches) before every call —
   the realistic pattern under which Mach's virtual copy pays its
   deferred costs — and the server consumes the data in place: reads it
   and updates it, breaking the receiver-side COW. *)
let refilled_message sys client ~bytes =
  let buffer =
    if bytes > ool_threshold then Mach.Vm.allocate sys client ~bytes () else 0
  in
  fun () ->
    if bytes <= ool_threshold then simple_message ~inline_bytes:bytes ()
    else begin
      Mach.Vm.touch sys client ~addr:buffer ~write:true ~bytes ();
      simple_message ~inline_bytes:64 ~ool:[ (buffer, bytes) ] ()
    end

let consuming_server sys server port =
  Mach.Ipc.serve sys port (fun msg ->
      List.iter
        (fun r ->
          Mach.Vm.touch sys server ~addr:r.ool_addr ~write:true
            ~bytes:r.ool_bytes ())
        msg.msg_ool;
      simple_message ())

(* One measured system, one client/server pair. *)
let measure_system ~iters ~bytes ~serve ~call =
  Scenario.run Scenario.base @@ fun e ->
  let m = e.m and k = e.k and sys = e.sys in
  let client = Mach.Kernel.task_create k ~name:"client" () in
  let server = Mach.Kernel.task_create k ~name:"server" () in
  let port = Mach.Port.allocate sys ~receiver:server ~name:"svc" in
  Scenario.spawn e server "srv" (fun () -> serve sys server port);
  let cycles = ref 0. in
  let hits = ref 0 and misses = ref 0 in
  Scenario.spawn e client "cl" (fun () ->
      let message = refilled_message sys client ~bytes in
      for _ = 1 to max 20 (iters / 10) do
        call sys port (message ())
      done;
      let c0 = Machine.now m in
      for _ = 1 to iters do
        call sys port (message ())
      done;
      cycles := float_of_int (Machine.now m - c0) /. float_of_int iters;
      hits := Mach.Ipc.reply_cache_hits sys;
      misses := Mach.Ipc.reply_cache_misses sys;
      Mach.Port.destroy sys port);
  fun () -> (!cycles, !hits, !misses)

let sweep_one ~iters ~bytes =
  (* Mach 3.0 mach_msg with reply ports and virtual copy *)
  let mach_cycles, reply_hits, reply_misses =
    measure_system ~iters ~bytes ~serve:consuming_server
      ~call:(fun sys port msg -> ignore (Mach.Ipc.call sys port msg))
  in
  (* the IBM RPC rework: data already physically copied to the server *)
  let rpc_cycles, _, _ =
    measure_system ~iters ~bytes
      ~serve:(fun sys _ port ->
        Mach.Rpc.serve sys port (fun _msg -> simple_message ()))
      ~call:(fun sys port msg -> ignore (Mach.Rpc.call sys port msg))
  in
  {
    sw_bytes = bytes;
    sw_mach_ipc_cycles = mach_cycles;
    sw_ibm_rpc_cycles = rpc_cycles;
    sw_improvement = mach_cycles /. rpc_cycles;
    sw_reply_hits = reply_hits;
    sw_reply_misses = reply_misses;
  }

let ipc_sweep ?(iters = 300) ~sizes () =
  List.map (fun bytes -> sweep_one ~iters ~bytes) sizes

(* --- E5: the factor-of-3 file-server cost ----------------------------------- *)

type factor = {
  fx_rpc_cycles_per_op : float;
  fx_trap_cycles_per_op : float;
  fx_factor : float;
}

(* The same op mix against any file surface: a warm-up pass over a
   quarter of [ops] (the cache and the code paths), then the timed pass;
   cycles per op. *)
let timed_mix m ~ops ~open_ ~op ~close =
  let pass n =
    let h = open_ () in
    for i = 1 to n do
      op h (i * 512 mod 4096)
    done;
    close h
  in
  pass (ops / 4);
  let t0 = Machine.now m in
  pass ops;
  float_of_int (Machine.now m - t0) /. float_of_int ops

let fileserver_factor ?(ops = 400) () =
  (* multi-server: minimal WPOS file stack on the Pentium machine *)
  let rpc_cycles =
    Scenario.run
      {
        Scenario.base with
        boot = Services Simple_naming;
        fs = Some 1;
      }
    @@ fun e ->
    let module C = Fileserver.File_server.Client in
    let fs = Option.get e.server in
    let app = Mach.Kernel.task_create e.k ~name:"app" () in
    let cycles = ref 0. in
    Scenario.spawn e app "app" (fun () ->
        cycles :=
          timed_mix e.m ~ops
            ~open_:(fun () ->
              match
                C.open_ fs Fileserver.Vfs.os2_semantics ~path:"/os2/bench"
                  ~create:true ()
              with
              | Ok h -> h
              | Error err -> Scenario.fail_fs err)
            ~op:(fun h pos ->
              C.seek fs h ~pos;
              ignore (C.read fs h ~bytes:512);
              ignore (C.write fs h (Bytes.make 512 'x')))
            ~close:(C.close fs));
    fun () -> !cycles
  in
  (* monolithic: the same code in-kernel *)
  let trap_cycles =
    let m = Machine.create Machine.Config.pentium_133 in
    let mono = Monolithic.boot m ~fs_format:`Hpfs () in
    let cycles = ref 0. in
    ignore
      (Monolithic.spawn_process mono ~name:"app" (fun () ->
           cycles :=
             timed_mix m ~ops
               ~open_:(fun () ->
                 match Monolithic.sys_open mono ~path:"/c/bench" ~create:true () with
                 | Ok h -> h
                 | Error err -> Scenario.fail_fs err)
               ~op:(fun h pos ->
                 Monolithic.sys_seek mono h ~pos;
                 ignore (Monolithic.sys_read mono h ~bytes:512);
                 ignore (Monolithic.sys_write mono h (Bytes.make 512 'x')))
               ~close:(Monolithic.sys_close mono))
        : Mach.Ktypes.task);
    Monolithic.run mono;
    !cycles
  in
  {
    fx_rpc_cycles_per_op = rpc_cycles;
    fx_trap_cycles_per_op = trap_cycles;
    fx_factor = rpc_cycles /. trap_cycles;
  }
