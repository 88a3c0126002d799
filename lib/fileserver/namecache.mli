(* Name cache: path-component lookup results keyed by (mount, parent
   directory, case-folded component), after DragonFly's namecache.
   Positive entries short-circuit the per-format directory scan;
   negative entries short-circuit repeated lookups of absent names.
   Entries live on an intrusive LRU bounded by [capacity]; the VFS
   invalidates on create/unlink/rename and clears on recovery.

   Pure host-side data structure: hit/miss accounting only — the VFS
   charges the simulated probe cost and feeds Machcheck. *)

type value = Pos of Fs_types.file_id | Neg

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

type t

val create : ?capacity:int -> unit -> t

(* Called for each LRU victim, after removal — the VFS uses it to keep
   Machcheck's shadow of the cache in sync. *)
val set_on_evict :
  t -> (mount:int -> dir:Fs_types.file_id -> name:string -> unit) -> unit

(* A hit (positive or negative) refreshes the entry's LRU position. *)
val find :
  t -> mount:int -> dir:Fs_types.file_id -> name:string -> value option

(* Insert replaces any entry under the same key and may evict the least
   recently used entry to stay within capacity. *)
val insert :
  t -> mount:int -> dir:Fs_types.file_id -> name:string -> value -> unit

val invalidate : t -> mount:int -> dir:Fs_types.file_id -> name:string -> unit
val clear : t -> unit
val stats : t -> stats
