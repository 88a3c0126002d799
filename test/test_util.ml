(* Shared helpers for the test suites: boot a system, run bodies inside
   simulated threads, and collect results. *)

let pentium () = Machine.create Machine.Config.pentium_133
let ppc () = Machine.create Machine.Config.ppc604_133

let kernel_on ?(config = Machine.Config.pentium_133) () =
  Mach.Kernel.boot (Machine.create config)

(* Run [body] inside a fresh thread of a fresh task and drive the system
   to completion; returns the body's result.  Fails the test if the body
   never finished (deadlock). *)
let run_in_thread ?(name = "test") kernel body =
  let task = Mach.Kernel.task_create kernel ~name () in
  let result = ref None in
  ignore
    (Mach.Kernel.thread_spawn kernel task ~name (fun () ->
         result := Some (body ()))
      : Mach.Ktypes.thread);
  Mach.Kernel.run kernel;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail (name ^ ": thread body did not complete")

(* Run [f] under a fresh installed Machcheck, the way the bench registry
   runs a checked profile: its result and the checker's report. *)
let checked f =
  Check.with_checker true (fun chk ->
      let r = f () in
      (r, Check.report (Option.get chk)))

(* A workload's result read back the way its BENCH file records it: the
   body as one object, and a number, an integer, a flag or the rows of an
   array of an object. *)
let body (r : Workloads.Experiment.result) = Json.Obj r.body

let member key json =
  match Json.member key json with
  | Some v -> v
  | None -> Alcotest.failf "no field %S" key

let num key json =
  match member key json with
  | Json.Num n -> n
  | _ -> Alcotest.failf "field %S is not a number" key

let int key json = int_of_float (num key json)

let flag key json =
  match member key json with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "field %S is not a flag" key

let rows key json =
  match member key json with
  | Json.Arr rows -> rows
  | _ -> Alcotest.failf "field %S is not an array" key

(* Spawn a body in an existing task. *)
let spawn kernel task name body =
  ignore (Mach.Kernel.thread_spawn kernel task ~name body : Mach.Ktypes.thread)

let check_fs_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.fail (label ^ ": " ^ Fileserver.Fs_types.fs_error_to_string e)

let fs_error : Fileserver.Fs_types.fs_error Alcotest.testable =
  Alcotest.testable
    (fun ppf e ->
      Format.pp_print_string ppf (Fileserver.Fs_types.fs_error_to_string e))
    ( = )
