(* Known-bad fixture: hot path.
   Bindings marked hot that still reach the runtime's polymorphic
   compare: a bare max on ints, a Stdlib-qualified compare, and min
   passed as a value to a fold. *)

let[@machlint.hot] words bytes = max 1 ((bytes + 3) / 4)

let[@machlint.hot] order a b = Stdlib.compare (a : int) b

let[@machlint.hot] rec smallest acc = function
  | [] -> acc
  | l -> smallest (List.fold_left min acc l) []
