(** The JFS-like physical file system (AIX's journalled format).

    Long names, case-sensitive, and a write-ahead journal: every
    mutating operation commits its block images to a checksummed journal
    ring (with an ordered barrier) before touching home locations, so a
    power cut at any write loses no acknowledged operation.  Mounting
    replays committed-but-unapplied transactions. *)

open Fs_types

val mkfs : Machine.Disk.t -> ?start:int -> ?blocks:int -> unit -> unit
val mount : Block_cache.t -> ?start:int -> unit -> (pfs, fs_error) result

val fsck : Block_cache.t -> ?start:int -> unit -> string list
(** Invariant scan of the volume; [] when consistent. *)

val last_recovery : Block_cache.t -> Journal.recovery option
(** The most recent journal recovery scan against this cache. *)
