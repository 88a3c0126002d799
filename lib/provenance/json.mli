(** A small JSON reader and printer for the BENCH_*.json files (the repo
    deliberately has no JSON dependency). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t

val rows : ('a -> (string * t) list) -> 'a list -> t
(** An array with one object per element. *)

val fixed : int -> float -> t
(** [fixed digits x] is [x] rounded to [digits] decimals, exactly the
    value a ["%.<digits>f"] writer's text reads back as. *)

val parse : string -> (t, string) Stdlib.result
val member : string -> t -> t option

val compact : t -> string
(** On one line, numbers as in {!to_string}. *)

val to_string : t -> string
(** Indented, newline-terminated.  Every number prints as the shortest
    text that reads back as the same float, so [parse (to_string v)]
    returns [v]'s leaves unchanged. *)
