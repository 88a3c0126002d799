(* Known-clean twin of bad_hotpath.ml: the hot bindings use the
   monomorphic Int versions, and the polymorphic ones appear only in a
   binding that is not marked hot (outside the machine model). *)

let[@machlint.hot] words bytes = Int.max 1 ((bytes + 3) / 4)

let[@machlint.hot] order a b = Int.compare a b

let[@machlint.hot] rec smallest acc = function
  | [] -> acc
  | l -> smallest (List.fold_left Int.min acc l) []

let report_order names = List.sort compare names
