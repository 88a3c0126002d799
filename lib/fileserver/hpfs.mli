(** The HPFS-like physical file system (OS/2's native format).

    Long names (up to 254 characters), case-insensitive matching with
    case preservation, extent-based allocation, no journal. *)

open Fs_types

val mkfs : Machine.Disk.t -> ?start:int -> ?blocks:int -> unit -> unit
val mount : Block_cache.t -> ?start:int -> unit -> (pfs, fs_error) result

val fsck : Block_cache.t -> ?start:int -> unit -> string list
(** Invariant scan of the volume; [] when consistent. *)
