(* Name cache: path-component lookup results keyed by (mount, parent
   directory, case-folded component), after DragonFly's namecache.  A
   positive entry short-circuits the per-format directory scan to one
   hash probe; a negative entry short-circuits repeated lookups of names
   that do not exist (the common "try each suffix" pattern).  Entries
   live on an intrusive LRU bounded by [capacity]; the VFS invalidates
   on create/unlink/rename and drops the whole cache on recovery.

   Pure host-side data structure: hit/miss accounting only, no simulated
   cost and no checker glue — the VFS charges the probe and feeds
   Machcheck. *)

type value = Pos of Fs_types.file_id | Neg

type entry = {
  e_mount : int;
  e_dir : Fs_types.file_id;
  e_name : string;
  e_value : value;
  mutable prev : entry;
  mutable next : entry;
}

type stats = {
  cs_capacity : int;
  cs_entries : int;
  cs_hits : int;
  cs_neg_hits : int;
  cs_misses : int;
  cs_insertions : int;
  cs_evictions : int;
  cs_invalidations : int;
}

type t = {
  capacity : int;
  tbl : (int * Fs_types.file_id * string, entry) Hashtbl.t;
  lru : entry;  (* sentinel: next = most recent, prev = least recent *)
  mutable hits : int;
  mutable neg_hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable on_evict : mount:int -> dir:Fs_types.file_id -> name:string -> unit;
}

let create ?(capacity = 512) () =
  let rec sentinel =
    { e_mount = -1; e_dir = -1; e_name = ""; e_value = Neg;
      prev = sentinel; next = sentinel }
  in
  {
    capacity = max 2 capacity;
    tbl = Hashtbl.create (2 * capacity);
    lru = sentinel;
    hits = 0;
    neg_hits = 0;
    misses = 0;
    insertions = 0;
    evictions = 0;
    invalidations = 0;
    on_evict = (fun ~mount:_ ~dir:_ ~name:_ -> ());
  }

let set_on_evict t f = t.on_evict <- f

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  e.next <- t.lru.next;
  e.prev <- t.lru;
  t.lru.next.prev <- e;
  t.lru.next <- e

let find t ~mount ~dir ~name =
  match Hashtbl.find_opt t.tbl (mount, dir, name) with
  | Some e ->
      (match e.e_value with
      | Pos _ -> t.hits <- t.hits + 1
      | Neg -> t.neg_hits <- t.neg_hits + 1);
      unlink e;
      push_front t e;
      Some e.e_value
  | None ->
      t.misses <- t.misses + 1;
      None

let remove_entry t e =
  unlink e;
  Hashtbl.remove t.tbl (e.e_mount, e.e_dir, e.e_name)

let insert t ~mount ~dir ~name value =
  (match Hashtbl.find_opt t.tbl (mount, dir, name) with
  | Some old -> remove_entry t old
  | None -> ());
  if Hashtbl.length t.tbl >= t.capacity then begin
    let victim = t.lru.prev in
    if victim != t.lru then begin
      t.evictions <- t.evictions + 1;
      remove_entry t victim;
      t.on_evict ~mount:victim.e_mount ~dir:victim.e_dir ~name:victim.e_name
    end
  end;
  let e =
    { e_mount = mount; e_dir = dir; e_name = name; e_value = value;
      prev = t.lru; next = t.lru }
  in
  push_front t e;
  Hashtbl.replace t.tbl (mount, dir, name) e;
  t.insertions <- t.insertions + 1

let invalidate t ~mount ~dir ~name =
  match Hashtbl.find_opt t.tbl (mount, dir, name) with
  | Some e ->
      t.invalidations <- t.invalidations + 1;
      remove_entry t e
  | None -> ()

let clear t =
  let n = Hashtbl.length t.tbl in
  if n > 0 then begin
    t.invalidations <- t.invalidations + n;
    Hashtbl.reset t.tbl;
    t.lru.next <- t.lru;
    t.lru.prev <- t.lru
  end

let stats t =
  {
    cs_capacity = t.capacity;
    cs_entries = Hashtbl.length t.tbl;
    cs_hits = t.hits;
    cs_neg_hits = t.neg_hits;
    cs_misses = t.misses;
    cs_insertions = t.insertions;
    cs_evictions = t.evictions;
    cs_invalidations = t.invalidations;
  }
