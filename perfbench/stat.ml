(* Small order statistics. *)

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
