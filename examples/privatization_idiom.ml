(* The privatization idiom, three ways:

   1. In the axiomatic model: race-free and safe in the programmer model,
      racy and broken in the implementation model, repaired by a
      quiescence fence.
   2. In the operational STM simulator: the lazy STM's delayed write-back
      loses the plain write; the fence restores it.
   3. On the real multicore STM runtime: privatize a buffer with a flag
      transaction, quiesce, then work on it with plain accesses.

   Run with:  dune exec examples/privatization_idiom.exe *)

open Tmx_core
open Tmx_exec
open Tmx_runtime

let program = (Option.get (Tmx_litmus.Catalog.find "privatization")).program
let fenced = (Option.get (Tmx_litmus.Catalog.find "privatization_fence")).program

let axiomatic () =
  Fmt.pr "== axiomatic model ==@.";
  let x1 o = Outcome.mem o "x" = 1 in
  let check model p =
    Enumerate.allowed (Enumerate.run model p) x1
  in
  Fmt.pr "programmer model, no fence:      x=1 %s@."
    (if check Model.programmer program then "allowed" else "forbidden");
  Fmt.pr "implementation model, no fence:  x=1 %s@."
    (if check Model.implementation program then "allowed" else "forbidden");
  Fmt.pr "implementation model, fenced:    x=1 %s@."
    (if check Model.implementation fenced then "allowed" else "forbidden")

let simulated () =
  Fmt.pr "@.== operational lazy STM (exhaustive schedules) ==@.";
  let run p = (Tmx_stmsim.Stmsim.run p).outcomes in
  let broken = List.exists (fun o -> Outcome.mem o "x" = 1) (run program) in
  let repaired = not (List.exists (fun o -> Outcome.mem o "x" = 1) (run fenced)) in
  Fmt.pr "delayed write-back loses the plain write: %b@." broken;
  Fmt.pr "quiescence fence repairs it:              %b@." repaired

(* A worker privatizes one buffer slot at a time and then processes it
   with cheap plain accesses, as in the §1 motivation. *)
let runtime () =
  Fmt.pr "@.== multicore STM runtime ==@.";
  let slots = 64 in
  let buffer = Array.init slots (fun i -> Tvar.make i) in
  let claimed = Array.init slots (fun _ -> Tvar.make 0) in
  let processed = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let worker () =
    for i = 0 to slots - 1 do
      let mine =
        Option.get
          (Stm.atomically (fun tx ->
               if Stm.read tx claimed.(i) = 0 then begin
                 Stm.write tx claimed.(i) 1;
                 true
               end
               else false))
      in
      if mine then begin
        (* the slot is now private; quiesce and use plain accesses *)
        Stm.quiesce ();
        let v = Tvar.unsafe_read buffer.(i) in
        Tvar.unsafe_write buffer.(i) (v * 10);
        if Tvar.unsafe_read buffer.(i) <> v * 10 then Atomic.incr errors;
        Atomic.incr processed
      end
    done
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Fmt.pr "slots processed: %d/%d, plain-access errors: %d@."
    (Atomic.get processed) slots (Atomic.get errors);
  Fmt.pr "stm %a@." Stm.pp_mode_stats (Stm.stats ()).lazy_stats

let () =
  axiomatic ();
  simulated ();
  runtime ()
