(* Scenarios as data: the record, the one runner that boots, faults and
   drives it, and the pieces several storms and sweeps share (see the
   interface). *)

open Mach.Ktypes
module F = Fileserver
module Sup = Mk_services.Supervisor

type boot = Kernel | Services of Mk_services.Bootstrap.naming

type t = {
  ncpus : int;
  boot : boot;
  fs : int option;
  net : int option;
  faults : (disk:string -> Mach.Fault.t) option;
}

let base = { ncpus = 1; boot = Kernel; fs = None; net = None; faults = None }

type env = {
  m : Machine.t;
  k : Mach.Kernel.t;
  sys : Mach.Sched.t;
  services : Mk_services.Bootstrap.t option;
  server : F.File_server.t option;
  netserver : Netserver.t option;
  plan : Mach.Fault.t option;
}

let config ncpus = Machine.Config.with_ncpus Machine.Config.pentium_133 ~n:ncpus
let fail_fs e = failwith (F.Fs_types.fs_error_to_string e)

let hpfs k ?(at = "/os2") vfs =
  let disk = k.Mach.Kernel.machine.Machine.disk in
  F.Hpfs.mkfs disk ();
  let cache = F.Block_cache.create k disk () in
  (match F.Hpfs.mount cache () with
  | Ok pfs -> Result.iter_error failwith (F.Vfs.mount vfs ~at pfs)
  | Error e -> fail_fs e);
  cache

let run sc setup =
  let m = Machine.create (config sc.ncpus) in
  let services, k =
    match sc.boot with
    | Kernel -> (None, Mach.Kernel.boot m)
    | Services naming ->
        let b = Mk_services.Bootstrap.boot ~naming m in
        (Some b, b.Mk_services.Bootstrap.kernel)
  in
  let server =
    Option.map
      (fun server_threads ->
        let vfs = F.Vfs.create () in
        ignore (hpfs k vfs : F.Block_cache.t);
        F.File_server.start k (Option.get services).Mk_services.Bootstrap.runtime
          vfs ~server_threads ())
      sc.fs
  in
  let netserver =
    Option.map
      (fun backlog -> Netserver.create ~backlog k ~style:Finegrain.Coarse)
      sc.net
  in
  let sys = k.Mach.Kernel.sys and disk = m.Machine.disk in
  let plan =
    Option.map
      (fun script ->
        Drivers.Disk_driver.arm_faults k disk;
        script ~disk:(Machine.Disk.name disk))
      sc.faults
  in
  sys.Mach.Sched.faults <- plan;
  let finish = setup { m; k; sys; services; server; netserver; plan } in
  Mach.Kernel.run k;
  sys.Mach.Sched.faults <- None;
  Drivers.Disk_driver.disarm_faults disk;
  finish ()

(* --- threads, time and arithmetic ---------------------------------------- *)

let spawn e task ?cpu name body =
  ignore
    (Mach.Kernel.thread_spawn e.k task ~name ?affinity:cpu ~bound:(cpu <> None)
       body
      : thread)

let sleep e cycles = ignore (Mach.Clock.sleep_for e.sys ~cycles : kern_return)
let lcg s = ((s * 1103515245) + 12345) land 0x3fffffff

let per_mcycle ops cycles =
  if cycles <= 0 then 0.0 else float_of_int ops /. float_of_int cycles *. 1e6

let speedups points =
  List.map
    (fun (series, _, rate, build) ->
      build
        (match
           List.find_opt (fun (s, n, _, _) -> n = 1 && s = series) points
         with
        | Some (_, _, anchor, _) when anchor > 0.0 -> rate /. anchor
        | _ -> 1.0))
    points

let percentiles samples =
  let a = Array.of_list samples in
  Array.sort Int.compare a;
  let n = Array.length a in
  fun p ->
    if n = 0 then 0 else a.(Int.min (n - 1) (int_of_float (p *. float_of_int n)))

(* --- acknowledged echo operations over the netserver --------------------- *)

let poll_reply e s =
  let net = Option.get e.netserver in
  let rec go n =
    match Netserver.try_recv net s with
    | Some _ ->
        (* drain stale duplicates from earlier retries of this op *)
        while Option.is_some (Netserver.try_recv net s) do
          ()
        done;
        true
    | None ->
        n > 0
        && begin
             sleep e 6_000;
             go (n - 1)
           end
  in
  go 12

let echo_server e task =
  let net = Option.get e.netserver in
  spawn e task ~cpu:0 "echo" (fun () ->
      match Netserver.udp_socket net ~port:7 with
      | Error err -> failwith err
      | Ok s ->
          while true do
            let src, n = Netserver.udp_recv net s in
            Netserver.udp_send net s ~dst_port:src ~bytes:n
          done)

type tally = { mutable acked : int; mutable lost : int; mutable retries : int }

let echo_clients e task ~ops ~budget note =
  let net = Option.get e.netserver in
  let t = { acked = 0; lost = 0; retries = 0 } in
  for cpu = 0 to Machine.ncpus e.m - 1 do
    spawn e task ~cpu (Printf.sprintf "victim%d" cpu) (fun () ->
        sleep e 2_000;
        match Netserver.udp_socket net ~port:(20_000 + cpu) with
        | Error err -> failwith err
        | Ok s ->
            for _ = 1 to ops do
              (* a retry re-sends after every unanswered poll *)
              let rec attempt left =
                left > 0
                && begin
                     Netserver.udp_send net s ~dst_port:7 ~bytes:160;
                     poll_reply e s
                     || begin
                          t.retries <- t.retries + 1;
                          attempt (left - 1)
                        end
                   end
              in
              let ok = attempt budget in
              if ok then t.acked <- t.acked + 1 else t.lost <- t.lost + 1;
              note ok
            done)
  done;
  t

(* --- the supervised file server ------------------------------------------ *)

let service_path = "/services/file"

(* One edit session: create the file, write it, read it back in four
   chunks, close, save durably (the sync is what pushes dirty blocks to
   the disk, so a storage-fault script has real writes to act on).  A
   crashed-and-restarted server loses the open-file table, so any step
   may come back [E_bad_handle] (or [E_io] from an exhausted retry); the
   session is then restarted from the open, a bounded number of times. *)
let edit_session fs ~path ~reopens =
  let module C = F.File_server.Client in
  let ( let* ) = Result.bind in
  let once () =
    let* h = C.open_ fs F.Vfs.os2_semantics ~path ~create:true () in
    let* _n = C.write fs h (Bytes.make 256 'e') in
    C.seek fs h ~pos:0;
    let rec reads n =
      if n = 0 then Ok ()
      else
        let* _data = C.read fs h ~bytes:64 in
        reads (n - 1)
    in
    let* () = reads 4 in
    C.close fs h;
    C.sync fs;
    Ok ()
  in
  let rec go tries =
    match once () with
    | Ok () -> true
    | Error _ when tries < 3 ->
        incr reopens;
        go (tries + 1)
    | Error _ -> false
  in
  go 0

type supervised = {
  sup : Sup.t;
  started : int ref;
  reopens : int ref;
  restarts : (int * int) list ref;
}

let supervised_edits e ~clients ~sessions ~budget ~health note =
  let boot = Option.get e.services and fs = Option.get e.server in
  let ns = Mk_services.Bootstrap.name_service_exn boot in
  let s =
    {
      sup = Sup.create e.k boot.Mk_services.Bootstrap.runtime ns;
      started = ref 0;
      reopens = ref 0;
      restarts = ref [];
    }
  in
  (* client-side port cache: a live port is reused, a dead one forces a
     fresh name-service resolution (finding the supervisor's rebind) *)
  let cached = ref (Some (F.File_server.port fs)) in
  let resolve () =
    match !cached with
    | Some p when not p.dead -> Some p
    | Some _ | None ->
        cached := Mk_services.Name_service.resolve_port ns ~path:service_path;
        !cached
  in
  (* the deadline must sit well above a legitimate op (tens of thousands
     of cycles once disk I/O is in the path) so only abandoned requests
     trip it; the backoff schedule must span a supervised restart, which
     includes crash recovery (fsck scan over the volume) *)
  F.File_server.set_retry fs ~attempts:7 ~deadline:1_000_000
    ~backoff:1_000_000 ~resolve ();
  let finished = ref 0 in
  let driver = Mach.Kernel.task_create e.k ~name:"driver" () in
  spawn e driver "main" (fun () ->
      (* registration first, so a crash at any point finds a watcher; the
         window never expires, since a run is one long burst *)
      Sup.supervise s.sup ~path:service_path ~budget ~window:max_int
        ?health:
          (if not health then None
           else
             Some
               {
                 Sup.hc_interval = 60_000;
                 hc_deadline = 30_000;
                 hc_watchdog = 4_000_000;
                 hc_port = (fun () -> Some (F.File_server.health_port fs));
               })
        ~port:(F.File_server.port fs)
        ~restart:(fun () ->
          let t0 = Machine.now e.m in
          let p = F.File_server.restart fs in
          s.restarts := (t0, Machine.now e.m) :: !(s.restarts);
          p)
        ();
      s.started := Machine.now e.m;
      for c = 1 to clients do
        let client =
          Mach.Kernel.task_create e.k ~name:(Printf.sprintf "editor%d" c) ()
        in
        spawn e client "edit" (fun () ->
            for n = 1 to sessions do
              let path = Printf.sprintf "/os2/c%d_s%d.dat" c n in
              note (edit_session fs ~path ~reopens:s.reopens);
              incr finished
            done)
      done;
      (* the heartbeat scan keeps the event queue alive, so a health-checked
         run only quiesces once the supervisor is told to stand down *)
      if health then begin
        while !finished < clients * sessions do
          sleep e 50_000
        done;
        Sup.stop s.sup
      end);
  s
