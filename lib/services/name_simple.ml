open Mach.Ktypes

type t = {
  runtime : Runtime.t;
  table : (string, port) Hashtbl.t;
}

let create (_kernel : Mach.Kernel.t) runtime =
  { runtime; table = Hashtbl.create 32 }

(* one short library routine per operation — hash, probe, done *)
let charge t = Runtime.execute t.runtime ~offset:0x900 ~bytes:112 ()

let register t ~name port =
  charge t;
  if Hashtbl.mem t.table name then false
  else begin
    Hashtbl.replace t.table name port;
    true
  end

let lookup t ~name =
  charge t;
  Hashtbl.find_opt t.table name

let remove t ~name =
  charge t;
  if Hashtbl.mem t.table name then begin
    Hashtbl.remove t.table name;
    true
  end
  else false
