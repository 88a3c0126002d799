(* Machcheck: rights / deadlock / buffer-lifetime shadow analysis.

   Pure host-side bookkeeping keyed on (space, id) integers so the mach
   library can depend on this one without a cycle.  See check.mli for
   the model. *)

type right = R_receive | R_send | R_send_once

let right_rank = function R_receive -> 3 | R_send -> 2 | R_send_once -> 1

let right_name = function
  | R_receive -> "receive"
  | R_send -> "send"
  | R_send_once -> "send-once"

type finding = { f_checker : string; f_kind : string; f_detail : string }

type report = {
  rep_counters : (string * int * bool) list;
  rep_findings : finding list;
}

(* --- counters ------------------------------------------------------------ *)

(* The one declaration of every counter, in report order: its JSON key
   and whether it counts as a finding.  Checkers bump a counter through
   its [c_] name, so a misspelt counter is a compile error.  The names
   are top-level rather than in a submodule, which would be one more
   block allocated at start-up.  [c_reinc_budget_exhausted] is
   informational: demotion is the policy working, not a safety
   violation. *)
let declared = Queue.create ()

let counter ?(finding = false) key =
  Queue.add (key, finding) declared;
  Queue.length declared - 1

let c_spaces = counter "spaces"
let c_right_transitions = counter "right_transitions"
let c_live_rights = counter "live_rights"
let c_leaked_rights = counter ~finding:true "leaked_rights"
let c_right_double_frees = counter ~finding:true "right_double_frees"
let c_right_downgrades = counter ~finding:true "right_downgrades"
let c_teardown_residual = counter "teardown_residual"
let c_blocks_tracked = counter "blocks_tracked"
let c_wait_cycles = counter ~finding:true "wait_cycles"
let c_buffers_shadowed = counter "buffers_shadowed"
let c_buf_double_releases = counter ~finding:true "buf_double_releases"
let c_buf_use_after_release = counter ~finding:true "buf_use_after_release"
let c_remap_moves = counter "remap_moves"
let c_double_moves = counter ~finding:true "double_moves"
let c_write_after_move = counter ~finding:true "write_after_move"
let c_mapout_evictions = counter ~finding:true "mapout_evictions"
let c_crash_points = counter "crash_points"
let c_lost_writes = counter ~finding:true "lost_writes"
let c_torn_states = counter ~finding:true "torn_states"
let c_vnodes_shadowed = counter "vnodes_shadowed"
let c_vnode_ref_underflows = counter ~finding:true "vnode_ref_underflows"
let c_vnode_use_after_reclaim = counter ~finding:true "vnode_use_after_reclaim"
let c_vnode_leaks = counter ~finding:true "vnode_leaks"
let c_ncache_shadowed = counter "ncache_shadowed"
let c_ncache_stale = counter ~finding:true "ncache_stale"
let c_net_sockets = counter "net_sockets"
let c_net_touches = counter "net_touches"
let c_net_shard_crossings = counter ~finding:true "net_shard_crossings"
let c_reinc_kills = counter "reinc_kills"
let c_reinc_reboots = counter "reinc_reboots"
let c_reinc_orphans = counter ~finding:true "reinc_orphans"
let c_reinc_stale_registry = counter ~finding:true "reinc_stale_registry"
let c_reinc_rights_residue = counter ~finding:true "reinc_rights_residue"
let c_reinc_budget_exhausted = counter "reinc_budget_exhausted"

let table = List.of_seq (Queue.to_seq declared)

(* One shadow right entry: task [task] in space [space] holds [ce_refs]
   references of [ce_right] to port [port]. *)
type centry = {
  mutable ce_right : right;
  mutable ce_refs : int;
  ce_tname : string;
  ce_pname : string;
}

type blocked = {
  b_tname : string;
  b_res : string;
  b_rdesc : string;
  mutable b_holders : int list;
  b_cpu : int;  (* CPU the thread blocked on; -1 = unknown/uniprocessor *)
  mutable b_wake_inflight : bool;
      (* a cross-CPU wake message is in flight: the thread is about to
         run, so it must not count as a blocked node in cycle search *)
}

type t = {
  counts : int array;  (* indexed by the [c_] counters *)
  (* rights: (space, task, port) -> entry; dead ports as (space, port) *)
  rights : (int * int * int, centry) Hashtbl.t;
  dead_ports : (int * int, unit) Hashtbl.t;
  (* deadlock: (space, tid) -> blocked; (space, res) -> owning tid *)
  blocked : (int * int, blocked) Hashtbl.t;
  owners : (int * string, int) Hashtbl.t;
  seen_cycles : (string, unit) Hashtbl.t;
  (* buffers: (space, addr) -> bytes live; retired set for UAR detection *)
  buf_live : (int * int, int) Hashtbl.t;
  buf_retired : (int * int, unit) Hashtbl.t;
  (* remap ownership: (space, task) -> ranges the task has moved out and
     no longer owns; (space, page addr) -> pinned flag for cache pages
     currently mapped out to another task *)
  moved_out : (int * int, (int * int * string) list ref) Hashtbl.t;
  mapped_out : (int * int, bool) Hashtbl.t;
  (* findings, newest first *)
  mutable recorded : finding list;
  (* vnode lifecycle: (space, mount, file) -> shadow refcount; reclaimed
     set for use-after-reclaim; (space, mount, dir, name) -> file for
     positive name-cache entries *)
  vn_refs : (int * int * int, int) Hashtbl.t;
  vn_reclaimed : (int * int * int, unit) Hashtbl.t;
  nc_entries : (int * int * int * string, int) Hashtbl.t;
  (* netisr shard discipline: (space, socket uid) -> home shard *)
  net_homes : (int * int, int) Hashtbl.t;
  (* reincarnation: (space, shard) dead set; (space, socket uid) -> home
     shard for state that a killed shard held and its rebirth must
     restore *)
  reinc_dead : (int * int, unit) Hashtbl.t;
  reinc_expected : (int * int, int) Hashtbl.t;
}

let create () =
  {
    counts = Array.make (List.length table) 0;
    rights = Hashtbl.create 64;
    dead_ports = Hashtbl.create 64;
    blocked = Hashtbl.create 32;
    owners = Hashtbl.create 32;
    seen_cycles = Hashtbl.create 8;
    buf_live = Hashtbl.create 64;
    buf_retired = Hashtbl.create 64;
    moved_out = Hashtbl.create 16;
    mapped_out = Hashtbl.create 32;
    recorded = [];
    vn_refs = Hashtbl.create 64;
    vn_reclaimed = Hashtbl.create 64;
    nc_entries = Hashtbl.create 64;
    net_homes = Hashtbl.create 64;
    reinc_dead = Hashtbl.create 8;
    reinc_expected = Hashtbl.create 64;
  }

let bump ?(by = 1) t c = t.counts.(c) <- t.counts.(c) + by

let new_space t =
  bump t c_spaces;
  t.counts.(c_spaces)

let g_installed : t option ref = ref None
let install t = g_installed := Some t
let uninstall () = g_installed := None
let installed () = !g_installed

let with_checker enabled f =
  if not enabled then f None
  else begin
    let t = create () in
    install t;
    Fun.protect ~finally:uninstall (fun () -> f (Some t))
  end

let record t c ~checker ~kind detail =
  bump t c;
  t.recorded <- { f_checker = checker; f_kind = kind; f_detail = detail }
                :: t.recorded

(* --- rights sanitizer --------------------------------------------------- *)

let right_allocated t ~space ~task ~tname ~port ~pname =
  bump t c_right_transitions;
  Hashtbl.replace t.rights (space, task, port)
    { ce_right = R_receive; ce_refs = 1; ce_tname = tname; ce_pname = pname }

let right_inserted t ~space ~task ~tname ~port ~pname ~right ~now =
  bump t c_right_transitions;
  match Hashtbl.find_opt t.rights (space, task, port) with
  | None ->
      Hashtbl.replace t.rights (space, task, port)
        { ce_right = now; ce_refs = 1; ce_tname = tname; ce_pname = pname }
  | Some e ->
      e.ce_refs <- e.ce_refs + 1;
      if right_rank now < right_rank e.ce_right then
        record t c_right_downgrades ~checker:"rights" ~kind:"downgrade"
          (Printf.sprintf
             "task %s: inserting %s over held %s right to port %s \
              weakened the capability"
             tname (right_name right) (right_name e.ce_right) pname);
      e.ce_right <- now

let right_deallocated t ~space ~task ~port =
  bump t c_right_transitions;
  match Hashtbl.find_opt t.rights (space, task, port) with
  | None ->
      record t c_right_double_frees ~checker:"rights" ~kind:"double-free"
        (Printf.sprintf
           "task t%d deallocated a right to port p%d the shadow no longer \
            holds" task port)
  | Some e ->
      e.ce_refs <- e.ce_refs - 1;
      if e.ce_refs <= 0 then Hashtbl.remove t.rights (space, task, port)

let dealloc_missing t ~tname ~name =
  record t c_right_double_frees ~checker:"rights" ~kind:"double-free"
    (Printf.sprintf
       "task %s deallocated name %d, which its port space does not hold"
       tname name)

let right_moved t ~space ~from_task ~to_task ~to_name ~port ~pname ~right
    ~now =
  (* a move is two transitions: the source's dealloc half and the
     destination's deposit *)
  right_deallocated t ~space ~task:from_task ~port;
  (match Hashtbl.find_opt t.rights (space, to_task, port) with
  | Some _ ->
      right_inserted t ~space ~task:to_task ~tname:to_name ~port ~pname ~right
        ~now
  | None ->
      bump t c_right_transitions;
      Hashtbl.replace t.rights (space, to_task, port)
        { ce_right = now; ce_refs = 1; ce_tname = to_name; ce_pname = pname })

let port_destroyed t ~space ~port =
  bump t c_right_transitions;
  Hashtbl.replace t.dead_ports (space, port) ()

let task_teardown t ~space ~task =
  let keys =
    Hashtbl.fold
      (fun ((sp, tk, _) as k) _ acc -> if sp = space && tk = task then k :: acc else acc)
      t.rights []
  in
  List.iter (Hashtbl.remove t.rights) keys;
  let n = List.length keys in
  bump ~by:n t c_teardown_residual;
  n

let live_rights t ~space ~task =
  Hashtbl.fold
    (fun (sp, tk, _) _ acc -> if sp = space && tk = task then acc + 1 else acc)
    t.rights 0

let dead_rights t ~space ~task =
  Hashtbl.fold
    (fun (sp, tk, p) _ acc ->
      if sp = space && tk = task && Hashtbl.mem t.dead_ports (space, p) then
        acc + 1
      else acc)
    t.rights 0

(* --- deadlock detector -------------------------------------------------- *)

let successors t ~space tid =
  match Hashtbl.find_opt t.blocked (space, tid) with
  | None -> []
  (* a wake message is already racing towards this thread: it is not
     really stuck, so waits through it cannot close a cycle *)
  | Some b when b.b_wake_inflight -> []
  | Some b -> (
      match Hashtbl.find_opt t.owners (space, b.b_res) with
      | Some o when o <> tid && not (List.mem o b.b_holders) -> o :: b.b_holders
      | _ -> b.b_holders)

(* DFS from [start]; returns the cycle path [start; ...; last] where
   [last] waits (transitively) back on [start]. *)
let find_cycle t ~space start =
  let visited = Hashtbl.create 8 in
  let rec go tid path =
    if Hashtbl.mem visited tid then None
    else begin
      Hashtbl.add visited tid ();
      let path = tid :: path in
      let succs = successors t ~space tid in
      if List.mem start succs then Some (List.rev path)
      else
        List.fold_left
          (fun acc s -> match acc with Some _ -> acc | None -> go s path)
          None succs
    end
  in
  go start []

let describe_cycle t ~space path =
  let leg tid =
    match Hashtbl.find_opt t.blocked (space, tid) with
    | Some b -> Printf.sprintf "t%d(%s) waits on %s" tid b.b_tname b.b_rdesc
    | None -> Printf.sprintf "t%d" tid
  in
  let base =
    String.concat " -> " (List.map leg path)
    ^ Printf.sprintf " -> back to t%d" (List.hd path)
  in
  (* a cycle whose waiters blocked on different CPUs is a cross-CPU
     deadlock: flag it, naming the CPUs involved *)
  let cpus =
    List.sort_uniq compare
      (List.filter_map
         (fun tid ->
           match Hashtbl.find_opt t.blocked (space, tid) with
           | Some b when b.b_cpu >= 0 -> Some b.b_cpu
           | _ -> None)
         path)
  in
  match cpus with
  | _ :: _ :: _ ->
      base
      ^ Printf.sprintf " [cross-CPU: cpus %s]"
          (String.concat "," (List.map string_of_int cpus))
  | _ -> base

let blocked_on t ~space ~tid ~tname ~cpu ~res ~rdesc ~holders =
  bump t c_blocks_tracked;
  Hashtbl.replace t.blocked (space, tid)
    {
      b_tname = tname;
      b_res = res;
      b_rdesc = rdesc;
      b_holders = holders;
      b_cpu = cpu;
      b_wake_inflight = false;
    };
  match find_cycle t ~space tid with
  | None -> ()
  | Some path ->
      let key =
        String.concat ","
          (List.map string_of_int (List.sort compare path))
        ^ Printf.sprintf "@%d" space
      in
      if not (Hashtbl.mem t.seen_cycles key) then begin
        Hashtbl.add t.seen_cycles key ();
        record t c_wait_cycles ~checker:"deadlock" ~kind:"wait-cycle"
          (describe_cycle t ~space path)
      end

let unblocked t ~space ~tid = Hashtbl.remove t.blocked (space, tid)

(* Cross-CPU wake tracking: between the send of an [X_wake] scheduler
   message and its delivery, the target looks blocked to everyone but is
   guaranteed to run — treating it as a wait-graph node would report
   deadlocks that resolve by themselves. *)
let remote_wake_sent t ~space ~tid =
  match Hashtbl.find_opt t.blocked (space, tid) with
  | Some b -> b.b_wake_inflight <- true
  | None -> ()

let remote_wake_delivered t ~space ~tid = Hashtbl.remove t.blocked (space, tid)

let retarget t ~space ~tid ~holders =
  match Hashtbl.find_opt t.blocked (space, tid) with
  | None -> ()
  | Some b -> b.b_holders <- holders

let acquired t ~space ~tid ~res = Hashtbl.replace t.owners (space, res) tid

let released t ~space ~res = Hashtbl.remove t.owners (space, res)

let thread_gone t ~space ~tid =
  Hashtbl.remove t.blocked (space, tid);
  let owned =
    Hashtbl.fold
      (fun ((sp, _) as k) o acc -> if sp = space && o = tid then k :: acc else acc)
      t.owners []
  in
  List.iter (Hashtbl.remove t.owners) owned

let blocked_count t = Hashtbl.length t.blocked

(* --- buffer-lifetime sanitizer ------------------------------------------ *)

let buf_allocated t ~space ~addr ~bytes =
  bump t c_buffers_shadowed;
  Hashtbl.replace t.buf_live (space, addr) bytes;
  Hashtbl.remove t.buf_retired (space, addr)

let buf_used t ~space ~addr =
  if Hashtbl.mem t.buf_retired (space, addr) then
    record t c_buf_use_after_release ~checker:"buffer"
      ~kind:"use-after-release"
      (Printf.sprintf "kernel buffer 0x%x touched after release" addr)

let buf_released t ~space ~addr =
  if Hashtbl.mem t.buf_live (space, addr) then begin
    Hashtbl.remove t.buf_live (space, addr);
    Hashtbl.replace t.buf_retired (space, addr) ()
  end
  else if Hashtbl.mem t.buf_retired (space, addr) then
    record t c_buf_double_releases ~checker:"buffer" ~kind:"double-release"
      (Printf.sprintf "kernel buffer 0x%x released twice" addr)
(* else: unknown addr — allocated before attach or orphaned by a recycle *)

let buf_reset t ~space =
  let purge tbl =
    let keys =
      Hashtbl.fold
        (fun ((sp, _) as k) _ acc -> if sp = space then k :: acc else acc)
        tbl []
    in
    List.iter (Hashtbl.remove tbl) keys
  in
  purge t.buf_live;
  purge t.buf_retired

(* --- remap-ownership sanitizer ------------------------------------------ *)

(* remap_move transfers ownership of a page range: after the donation the
   sender must treat the range as gone.  We shadow each task's moved-out
   ranges and flag (a) moving a range that was already moved (double
   move), (b) a write landing inside a moved-out range (write after
   move), and (c) a cache page being evicted or reused while it is still
   mapped out to a client without a pin (the file server's zero-copy
   reply protocol requires the pin). *)

let ranges_overlap a1 b1 a2 b2 = a1 < a2 + b2 && a2 < a1 + b1

let remap_moved t ~space ~task ~tname ~addr ~bytes =
  bump t c_remap_moves;
  let key = (space, task) in
  let lst =
    match Hashtbl.find_opt t.moved_out key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.moved_out key r;
        r
  in
  List.iter
    (fun (a, b, _) ->
      if ranges_overlap addr bytes a b then
        record t c_double_moves ~checker:"remap" ~kind:"double-move"
          (Printf.sprintf
             "task %s: range 0x%x+%d moved out again (overlaps moved-out \
              0x%x+%d)"
             tname addr bytes a b))
    !lst;
  lst := (addr, bytes, tname) :: !lst

let remap_write t ~space ~task ~addr ~bytes =
  match Hashtbl.find_opt t.moved_out (space, task) with
  | None -> ()
  | Some lst ->
      let hit, rest =
        List.partition (fun (a, b, _) -> ranges_overlap addr bytes a b) !lst
      in
      List.iter
        (fun (a, b, tname) ->
          record t c_write_after_move ~checker:"remap"
            ~kind:"write-after-move"
            (Printf.sprintf
               "task %s: write to 0x%x+%d lands in range 0x%x+%d whose \
                pages were donated by remap_move"
               tname addr bytes a b))
        hit;
      (* report once, then re-arm: the range stays gone but we do not
         repeat the finding for every subsequent access *)
      lst := rest

let remap_clear t ~space ~task ~addr ~bytes =
  match Hashtbl.find_opt t.moved_out (space, task) with
  | None -> ()
  | Some lst ->
      lst := List.filter (fun (a, b, _) -> not (ranges_overlap addr bytes a b)) !lst

let cache_mapped_out t ~space ~addr ~pinned =
  Hashtbl.replace t.mapped_out (space, addr) pinned

let cache_unmapped t ~space ~addr =
  Hashtbl.remove t.mapped_out (space, addr)

let cache_reused t ~space ~addr ~tag =
  match Hashtbl.find_opt t.mapped_out (space, addr) with
  | None -> ()
  | Some pinned ->
      record t c_mapout_evictions ~checker:"remap" ~kind:"mapout-eviction"
        (Printf.sprintf
           "cache page 0x%x (%s) reused while still mapped out to a \
            client%s"
           addr tag
           (if pinned then " despite its pin" else " without a pin"));
      Hashtbl.remove t.mapped_out (space, addr)

(* --- crash-consistency checker ------------------------------------------ *)

let crash_point_checked t = bump t c_crash_points

let crash_lost_write t detail =
  record t c_lost_writes ~checker:"crash" ~kind:"lost-write" detail

let crash_torn_state t detail =
  record t c_torn_states ~checker:"crash" ~kind:"torn-state" detail

(* --- vnode-lifecycle checker --------------------------------------------- *)

(* The VFS reports vnode interning, long-lived references, reclamation
   (unlink / recovery) and every dispatch through a vnode; the shadow
   flags dispatch through a reclaimed vnode, reference-count underflow,
   and references still outstanding when a mount recovers.  Positive
   name-cache entries are shadowed too, so a cache hit whose target was
   reclaimed without invalidation is caught as a stale entry. *)

let vnode_active t ~space ~mount ~file =
  bump t c_vnodes_shadowed;
  (* formats reuse file ids: a fresh vnode under a reclaimed id is a new
     incarnation, not a use of the old one *)
  Hashtbl.remove t.vn_reclaimed (space, mount, file);
  if not (Hashtbl.mem t.vn_refs (space, mount, file)) then
    Hashtbl.replace t.vn_refs (space, mount, file) 0

let vnode_ref t ~space ~mount ~file =
  let k = (space, mount, file) in
  let n = Option.value (Hashtbl.find_opt t.vn_refs k) ~default:0 in
  Hashtbl.replace t.vn_refs k (n + 1)

let vnode_unref t ~space ~mount ~file =
  let k = (space, mount, file) in
  match Hashtbl.find_opt t.vn_refs k with
  | Some n when n > 0 -> Hashtbl.replace t.vn_refs k (n - 1)
  | _ ->
      record t c_vnode_ref_underflows ~checker:"vnode" ~kind:"ref-underflow"
        (Printf.sprintf
           "vnode m%d/f%d unreferenced more times than it was referenced"
           mount file)

let vnode_reclaimed t ~space ~mount ~file =
  Hashtbl.replace t.vn_reclaimed (space, mount, file) ()

let vnode_used t ~space ~mount ~file ~op =
  if Hashtbl.mem t.vn_reclaimed (space, mount, file) then begin
    record t c_vnode_use_after_reclaim ~checker:"vnode"
      ~kind:"use-after-reclaim"
      (Printf.sprintf "%s dispatched through reclaimed vnode m%d/f%d" op
         mount file);
    (* one bug is one finding: re-arm rather than repeating *)
    Hashtbl.remove t.vn_reclaimed (space, mount, file)
  end

let vnode_mount_recovered t ~space ~mount =
  let keys =
    Hashtbl.fold
      (fun ((sp, m, _) as k) n acc ->
        if sp = space && m = mount then (k, n) :: acc else acc)
      t.vn_refs []
  in
  List.iter
    (fun (((_, m, f) as k), n) ->
      if n > 0 then
        record t c_vnode_leaks ~checker:"vnode" ~kind:"leaked-refs"
          (Printf.sprintf
             "vnode m%d/f%d still holds %d reference(s) across mount \
              recovery"
             m f n);
      Hashtbl.remove t.vn_refs k)
    keys;
  let dead =
    Hashtbl.fold
      (fun ((sp, m, _) as k) _ acc ->
        if sp = space && m = mount then k :: acc else acc)
      t.vn_reclaimed []
  in
  List.iter (Hashtbl.remove t.vn_reclaimed) dead

(* --- name-cache shadow ---------------------------------------------------- *)

let ncache_stored t ~space ~mount ~dir ~name ~file =
  bump t c_ncache_shadowed;
  Hashtbl.replace t.nc_entries (space, mount, dir, name) file

let ncache_hit t ~space ~mount ~dir ~name =
  match Hashtbl.find_opt t.nc_entries (space, mount, dir, name) with
  | None -> ()
  | Some file ->
      if Hashtbl.mem t.vn_reclaimed (space, mount, file) then begin
        record t c_ncache_stale ~checker:"vnode" ~kind:"stale-entry"
          (Printf.sprintf
             "name cache served (m%d/d%d, %S) -> f%d after the vnode was \
              reclaimed without invalidation"
             mount dir name file);
        Hashtbl.remove t.nc_entries (space, mount, dir, name)
      end

let ncache_invalidated t ~space ~mount ~dir ~name =
  Hashtbl.remove t.nc_entries (space, mount, dir, name)

let ncache_cleared t ~space =
  let keys =
    Hashtbl.fold
      (fun ((sp, _, _, _) as k) _ acc -> if sp = space then k :: acc else acc)
      t.nc_entries []
  in
  List.iter (Hashtbl.remove t.nc_entries) keys

(* --- netisr shard checker ------------------------------------------------- *)

let net_socket_home t ~space ~sock ~shard =
  bump t c_net_sockets;
  Hashtbl.replace t.net_homes (space, sock) shard

let net_touched t ~space ~sock ~home ~shard =
  bump t c_net_touches;
  (* trust the registered home over the caller's claim, if we saw it *)
  let home =
    match Hashtbl.find_opt t.net_homes (space, sock) with
    | Some h -> h
    | None -> home
  in
  if shard <> home then
    record t c_net_shard_crossings ~checker:"net" ~kind:"shard-crossing"
      (Printf.sprintf
         "socket u%d (home shard %d) was touched by shard %d's protocol \
          thread"
         sock home shard)

(* --- reincarnation checker ------------------------------------------------ *)

let reinc_shard_killed t ~space ~shard =
  bump t c_reinc_kills;
  Hashtbl.replace t.reinc_dead (space, shard) ()

let reinc_expect t ~space ~shard ~sock =
  Hashtbl.replace t.reinc_expected (space, sock) shard

let reinc_restored t ~space ~shard ~sock =
  match Hashtbl.find_opt t.reinc_expected (space, sock) with
  | Some _ -> Hashtbl.remove t.reinc_expected (space, sock)
  | None ->
      record t c_reinc_stale_registry ~checker:"reinc"
        ~kind:"stale-registry"
        (Printf.sprintf
           "shard %d rebuilt socket u%d from a registry entry that matched \
            nothing the dead shard held"
           shard sock)

let reinc_shard_reborn t ~space ~shard =
  bump t c_reinc_reboots;
  Hashtbl.remove t.reinc_dead (space, shard);
  let orphans =
    Hashtbl.fold
      (fun ((sp, sock) as k) home acc ->
        if sp = space && home = shard then (k, sock) :: acc else acc)
      t.reinc_expected []
  in
  List.iter
    (fun (k, sock) ->
      Hashtbl.remove t.reinc_expected k;
      record t c_reinc_orphans ~checker:"reinc" ~kind:"orphaned-state"
        (Printf.sprintf
           "socket u%d was live in shard %d at its death and reincarnation \
            did not restore it"
           sock shard))
    (List.sort compare orphans)

let reinc_rights_residue t ~shard ~port ~pname =
  record t c_reinc_rights_residue ~checker:"reinc" ~kind:"rights-residue"
    (Printf.sprintf
       "after shard %d's reboot the netserver still holds rights to %s(p%d) \
        backing no live socket"
       shard pname port)

let reinc_budget_exhausted t ~path ~restarts =
  record t c_reinc_budget_exhausted ~checker:"reinc"
    ~kind:"budget-exhausted"
    (Printf.sprintf
       "%s exhausted its restart budget after %d restart(s) and was demoted \
        to degraded mode"
       path restarts)

(* --- reporting ---------------------------------------------------------- *)

let leak_findings t =
  let leaks =
    Hashtbl.fold
      (fun (sp, tk, p) e acc ->
        if Hashtbl.mem t.dead_ports (sp, p) then ((sp, tk, p), e) :: acc
        else acc)
      t.rights []
  in
  let leaks = List.sort (fun (a, _) (b, _) -> compare a b) leaks in
  List.map
    (fun ((_, tk, p), e) ->
      {
        f_checker = "rights";
        f_kind = "leak";
        f_detail =
          Printf.sprintf
            "task %s(t%d) still holds a %s right (refs %d) to dead port \
             %s(p%d)"
            e.ce_tname tk (right_name e.ce_right) e.ce_refs e.ce_pname p;
      })
    leaks

(* The counter table, with the two counters that are snapshots of the
   shadow state filled in at report time. *)
let report t =
  let leaks = leak_findings t in
  let counts = Array.copy t.counts in
  counts.(c_live_rights) <- Hashtbl.length t.rights;
  counts.(c_leaked_rights) <- List.length leaks;
  {
    rep_counters =
      List.mapi (fun i (key, finding) -> (key, counts.(i), finding)) table;
    rep_findings = List.rev_append t.recorded leaks;
  }

let count r key =
  match List.find_opt (fun (k, _, _) -> k = key) r.rep_counters with
  | Some (_, n, _) -> n
  | None -> invalid_arg ("Check.count: no counter " ^ key)

let total_findings r =
  List.fold_left
    (fun acc (_, n, finding) -> if finding then acc + n else acc)
    0 r.rep_counters

let to_json r =
  Json.Obj
    (List.map (fun (k, n, _) -> (k, Json.int n)) r.rep_counters
    @ [
        ("total_findings", Json.int (total_findings r));
        ( "findings",
          Json.rows
            (fun f ->
              [
                ("checker", Json.Str f.f_checker); ("kind", Json.Str f.f_kind);
                ("detail", Json.Str f.f_detail);
              ])
            r.rep_findings );
      ])

let pp_report ppf r =
  let line label finding =
    Format.fprintf ppf "@,@[<hov 2>%s:" label;
    List.iter
      (fun (k, n, f) -> if f = finding then Format.fprintf ppf "@ %s=%d" k n)
      r.rep_counters;
    Format.fprintf ppf "@]"
  in
  Format.fprintf ppf "@[<v>machcheck: %d finding(s)" (total_findings r);
  line "observed" false;
  line "findings" true;
  Format.fprintf ppf "@]";
  if r.rep_findings <> [] then begin
    Format.fprintf ppf "@.";
    List.iter
      (fun f ->
        Format.fprintf ppf "  [%s/%s] %s@." f.f_checker f.f_kind f.f_detail)
      r.rep_findings
  end
