(** Set-associative cache model with LRU replacement.

    The cache is a tag store only: it tracks which physical line addresses
    are resident, not their contents.  That is all the cost model needs —
    hits and misses drive cycle and bus charges in {!Cpu}. *)

type t

val create : Config.cache_geometry -> t
(** @raise Invalid_argument unless the line size and the set count are
    powers of two. *)

val access : t -> int -> bool
(** [access t addr] looks up the line containing physical address [addr],
    inserting it (evicting the least recently used way, the lowest way on
    ties) on miss.  Returns [true] on hit.
    @raise Invalid_argument when [addr] is negative. *)

val probe : t -> int -> bool
(** [probe t addr] is like {!access} but without side effects. *)

val flush : t -> unit
(** Invalidate every line. *)

val lines : t -> int
(** Total number of lines the cache can hold. *)

val resident : t -> int
(** Number of currently valid lines. *)
