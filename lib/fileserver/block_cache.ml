(* Slots live in a hash table for lookup and on an intrusive circular
   doubly-linked LRU list (with sentinel) for eviction: a hit relinks in
   O(1), and the victim is always the sentinel's predecessor — no O(n)
   scan over the whole cache on every miss. *)
type slot = {
  mutable s_block : int;
  mutable data : bytes;
  mutable dirty : bool;
  mutable prev : slot;
  mutable next : slot;
}

(* Pages the cache lends to zero-copy replies.  A read that goes out by
   remap assembles whole blocks into a pool page and COW-maps that page
   into the client instead of copying the bytes through a message.  A
   pinned page is never handed out again until released; reusing an
   unpinned page that is still mapped out is exactly the lifetime bug
   Machcheck's remap sanitizer reports. *)
type pool_slot = { mutable p_out : bool; mutable p_pinned : bool }

type pool = {
  pool_base : int;  (* base address in the owning task's map *)
  pool_slots : pool_slot array;
  mutable pool_next : int;  (* roving ring pointer, like the kbuf arena *)
}

type t = {
  kernel : Mach.Kernel.t;
  disk : Machine.Disk.t;
  capacity : int;
  slots : (int, slot) Hashtbl.t;
  lru : slot;  (* sentinel: [lru.next] = most recent, [lru.prev] = victim *)
  buf_region : Machine.Layout.region;  (* cache memory, for data costing *)
  mutable pool : pool option;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create (kernel : Mach.Kernel.t) disk ?(capacity = 256) () =
  let layout = kernel.Mach.Kernel.machine.Machine.layout in
  let bs = (Machine.Disk.geometry disk).Machine.Disk.block_size in
  let name =
    Printf.sprintf "block-cache:%s" (Machine.Disk.name disk)
  in
  let buf_region =
    match Machine.Layout.find layout name with
    | Some r -> r
    | None ->
        Machine.Layout.alloc layout ~name ~kind:Machine.Layout.Data
          ~size:(capacity * bs)
  in
  let rec sentinel =
    { s_block = -1; data = Bytes.empty; dirty = false; prev = sentinel;
      next = sentinel }
  in
  {
    kernel;
    disk;
    capacity;
    slots = Hashtbl.create (capacity * 2);
    lru = sentinel;
    buf_region;
    pool = None;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let block_size t = (Machine.Disk.geometry t.disk).Machine.Disk.block_size

let unlink s =
  s.prev.next <- s.next;
  s.next.prev <- s.prev

let push_front t s =
  s.next <- t.lru.next;
  s.prev <- t.lru;
  t.lru.next.prev <- s;
  t.lru.next <- s

let touch t s =
  unlink s;
  push_front t s

(* the hash-probe itself: a touch of the cache's index structure *)
let charge_lookup t =
  Machine.Cpu.load t.kernel.Mach.Kernel.machine.Machine.cpu
    ~addr:(t.buf_region.Machine.Layout.base + 16) ~bytes:32

let data_addr t block =
  t.buf_region.Machine.Layout.base + (block mod t.capacity * block_size t)

let charge_data t block ~write =
  let addr = data_addr t block and cpu = t.kernel.Mach.Kernel.machine.Machine.cpu in
  if write then Machine.Cpu.store cpu ~addr ~bytes:(block_size t)
  else Machine.Cpu.load cpu ~addr ~bytes:(block_size t)

let in_thread (t : t) =
  Option.is_some t.kernel.Mach.Kernel.sys.Mach.Sched.current

let evict_if_full t =
  if Hashtbl.length t.slots >= t.capacity then begin
    let victim = t.lru.prev in
    if victim != t.lru then begin
      if victim.dirty then begin
        t.writebacks <- t.writebacks + 1;
        if in_thread t then
          Machine.Disk.write t.disk ~block:victim.s_block
            (Bytes.copy victim.data) (fun () -> ())
        else Machine.Disk.write_now t.disk ~block:victim.s_block
            (Bytes.copy victim.data)
      end;
      unlink victim;
      Hashtbl.remove t.slots victim.s_block
    end
  end

let insert t block data ~dirty =
  let s =
    { s_block = block; data; dirty; prev = t.lru; next = t.lru }
  in
  push_front t s;
  Hashtbl.replace t.slots block s

let disk_read_blocking t block =
  if in_thread t then begin
    let sys = t.kernel.Mach.Kernel.sys in
    let th = Mach.Sched.self () in
    let result = ref None in
    Machine.Disk.read t.disk ~block ~count:1 (fun data ->
        result := Some data;
        Mach.Sched.wake sys th);
    let rec wait () =
      match !result with
      | Some data -> data
      | None ->
          ignore (Mach.Sched.block "disk-read" : Mach.Ktypes.kern_return);
          wait ()
    in
    wait ()
  end
  else Machine.Disk.read_now t.disk ~block ~count:1

let read t block =
  charge_lookup t;
  match Hashtbl.find_opt t.slots block with
  | Some slot ->
      t.hits <- t.hits + 1;
      touch t slot;
      charge_data t block ~write:false;
      Bytes.copy slot.data
  | None ->
      t.misses <- t.misses + 1;
      let data = disk_read_blocking t block in
      evict_if_full t;
      insert t block (Bytes.copy data) ~dirty:false;
      charge_data t block ~write:false;
      data

let write t block data =
  if Bytes.length data <> block_size t then
    invalid_arg "Block_cache.write: bad block length";
  charge_lookup t;
  charge_data t block ~write:true;
  match Hashtbl.find_opt t.slots block with
  | Some slot ->
      t.hits <- t.hits + 1;
      slot.data <- Bytes.copy data;
      slot.dirty <- true;
      touch t slot
  | None ->
      t.misses <- t.misses + 1;
      evict_if_full t;
      insert t block (Bytes.copy data) ~dirty:true

let flush t =
  Hashtbl.iter
    (fun block slot ->
      if slot.dirty then begin
        slot.dirty <- false;
        t.writebacks <- t.writebacks + 1;
        if in_thread t then
          Machine.Disk.write t.disk ~block (Bytes.copy slot.data) (fun () -> ())
        else Machine.Disk.write_now t.disk ~block (Bytes.copy slot.data)
      end)
    t.slots

(* Blocking barrier: returns once every write submitted so far has
   reached the media (and any reorder-held writes have landed).  Outside
   a thread everything was written synchronously, so the barrier
   completes immediately unless the device is mid-request. *)
let barrier_wait t =
  if in_thread t then begin
    let sys = t.kernel.Mach.Kernel.sys in
    let th = Mach.Sched.self () in
    let arrived = ref false in
    Machine.Disk.barrier t.disk (fun () ->
        arrived := true;
        Mach.Sched.wake sys th);
    while not !arrived do
      ignore (Mach.Sched.block "disk-barrier" : Mach.Ktypes.kern_return)
    done
  end
  else Machine.Disk.barrier t.disk (fun () -> ())

let flush_wait t =
  flush t;
  barrier_wait t

let lru_block t =
  let victim = t.lru.prev in
  if victim == t.lru then None else Some victim.s_block

let dirty_blocks t =
  Hashtbl.fold (fun _ s acc -> if s.dirty then acc + 1 else acc) t.slots 0

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let kernel t = t.kernel
let disk t = t.disk

(* --- mapout pool --------------------------------------------------------- *)

let pool_pages = 16

let map_pool t task =
  match t.pool with
  | Some _ -> ()
  | None ->
      let sys = t.kernel.Mach.Kernel.sys in
      let base =
        Mach.Vm.allocate sys task
          ~bytes:(pool_pages * Mach.Ktypes.page_size) ()
      in
      t.pool <-
        Some
          {
            pool_base = base;
            pool_slots =
              Array.init pool_pages (fun _ ->
                  { p_out = false; p_pinned = false });
            pool_next = 0;
          }

let pool_acquire t ~pages ~pin =
  match t.pool with
  | None -> None
  | Some p ->
      let n = Array.length p.pool_slots in
      if pages <= 0 || pages > n then None
      else begin
        (* ring scan for [pages] consecutive slots, none pinned *)
        let found = ref None in
        let cursor = ref p.pool_next in
        let tries = ref 0 in
        while !found = None && !tries < n do
          let s = !cursor mod n in
          if s + pages <= n then begin
            let ok = ref true in
            for i = s to s + pages - 1 do
              if p.pool_slots.(i).p_pinned then ok := false
            done;
            if !ok then found := Some s
          end;
          incr cursor;
          incr tries
        done;
        match !found with
        | None -> None  (* every candidate run holds a pinned page *)
        | Some s ->
            p.pool_next <- s + pages;
            let sys = t.kernel.Mach.Kernel.sys in
            let tag =
              Printf.sprintf "block-cache:%s" (Machine.Disk.name t.disk)
            in
            for i = s to s + pages - 1 do
              let slot = p.pool_slots.(i) in
              let addr = p.pool_base + (i * Mach.Ktypes.page_size) in
              if slot.p_out then
                (* still mapped out from an earlier reply, but not pinned:
                   the reuse the checker is there to catch *)
                Mach.Mcheck.cache_reused sys ~addr ~tag;
              slot.p_out <- true;
              slot.p_pinned <- pin;
              Mach.Mcheck.cache_mapped_out sys ~addr ~pinned:pin
            done;
            Some (p.pool_base + (s * Mach.Ktypes.page_size))
      end

let pool_fill t ~dst block =
  let data = read t block in
  Machine.Cpu.store t.kernel.Mach.Kernel.machine.Machine.cpu ~addr:dst
    ~bytes:(block_size t);
  data

let pool_release t ~addr ~pages =
  match t.pool with
  | None -> ()
  | Some p ->
      let sys = t.kernel.Mach.Kernel.sys in
      let first = (addr - p.pool_base) / Mach.Ktypes.page_size in
      for i = first to first + pages - 1 do
        if i >= 0 && i < Array.length p.pool_slots then begin
          let slot = p.pool_slots.(i) in
          slot.p_out <- false;
          slot.p_pinned <- false;
          Mach.Mcheck.cache_unmapped sys
            ~addr:(p.pool_base + (i * Mach.Ktypes.page_size))
        end
      done

let pool_pinned t =
  match t.pool with
  | None -> 0
  | Some p ->
      Array.fold_left
        (fun acc s -> if s.p_pinned then acc + 1 else acc)
        0 p.pool_slots

(* Forget every mapout from a dead incarnation.  The pages belonged to
   replies that no longer have a client (the server's ports died with
   it), so unmapping them is reclamation, not a lifetime violation. *)
let pool_reset t =
  match t.pool with
  | None -> ()
  | Some p ->
      let sys = t.kernel.Mach.Kernel.sys in
      Array.iteri
        (fun i slot ->
          if slot.p_out then
            Mach.Mcheck.cache_unmapped sys
              ~addr:(p.pool_base + (i * Mach.Ktypes.page_size));
          slot.p_out <- false;
          slot.p_pinned <- false)
        p.pool_slots;
      p.pool_next <- 0

(* Drop every slot without writeback — used on the journalled recovery
   path, where the journal (not the dirty cache) is the truth and stale
   cached copies would mask replayed blocks. *)
let invalidate t =
  Hashtbl.reset t.slots;
  t.lru.next <- t.lru;
  t.lru.prev <- t.lru;
  pool_reset t
