(** The Release-2 simplified name service for embedded configurations.

    A flat name→port table with none of the X.500 machinery: no
    attributes, no hierarchy, no search, no notifications — and an order
    of magnitude cheaper per operation (experiment E9).  It is a library,
    not a server: callers link it into their own task. *)

open Mach.Ktypes

type t

val create : Mach.Kernel.t -> Runtime.t -> t

val register : t -> name:string -> port -> bool
(** [false] when the name is taken. *)

val lookup : t -> name:string -> port option
val remove : t -> name:string -> bool
