(* A staged pipeline on the STM runtime, combining the transactional data
   structures with the privatization idiom:

   producer --(Tqueue)--> worker --(Tqueue)--> collector

   The worker claims a batch slot transactionally, quiesces, processes
   the batch with cheap plain accesses (the §1 motivation for
   privatization: keep heavy computation outside atomic blocks), then
   publishes the result back through a transaction.

   Run with:  dune exec examples/pipeline.exe *)

open Tmx_runtime

let batches = 24
let batch_size = 16

let () =
  let input = Tqueue.create ~capacity:8 in
  let output = Tqueue.create ~capacity:8 in
  (* the shared batch store: [batches] rows of [batch_size] cells *)
  let store = Tarray.make (batches * batch_size) 0 in
  let claimed = Tarray.make batches 0 in

  let producer () =
    for b = 0 to batches - 1 do
      (* fill the batch plainly — nobody can see it yet — then publish
         its index through the queue (the publication idiom) *)
      for i = 0 to batch_size - 1 do
        Tvar.unsafe_write store.((b * batch_size) + i) (i + 1)
      done;
      let rec push () =
        match Stm.atomically (fun tx -> Tqueue.push tx input b) with
        | Some true -> ()
        | _ ->
            Domain.cpu_relax ();
            push ()
      in
      push ()
    done
  in

  let worker () =
    let processed = ref 0 in
    while !processed < batches do
      match Stm.atomically (fun tx -> Tqueue.pop tx input) with
      | Some (Some b) ->
          incr processed;
          (* claim the batch transactionally, then privatize it *)
          ignore (Stm.atomically (fun tx -> Tarray.set tx claimed b 1));
          Stm.quiesce ();
          (* heavy work with plain accesses: sum and square the batch *)
          let sum = ref 0 in
          for i = 0 to batch_size - 1 do
            let v = Tvar.unsafe_read store.((b * batch_size) + i) in
            Tvar.unsafe_write store.((b * batch_size) + i) (v * v);
            sum := !sum + v
          done;
          (* publish the result *)
          let rec push () =
            match Stm.atomically (fun tx -> Tqueue.push tx output !sum) with
            | Some true -> ()
            | _ ->
                Domain.cpu_relax ();
                push ()
          in
          push ()
      | _ -> Domain.cpu_relax ()
    done
  in

  let collector () =
    let total = ref 0 and received = ref 0 in
    while !received < batches do
      match Stm.atomically (fun tx -> Tqueue.pop tx output) with
      | Some (Some sum) ->
          incr received;
          total := !total + sum
      | _ -> Domain.cpu_relax ()
    done;
    !total
  in

  let p = Domain.spawn producer in
  let w = Domain.spawn worker in
  let total = collector () in
  Domain.join p;
  Domain.join w;

  let expected = batches * (batch_size * (batch_size + 1) / 2) in
  Fmt.pr "pipeline: %d batches, total=%d (expected %d) — %s@." batches total
    expected
    (if total = expected then "ok" else "MISMATCH");
  (* and the privatized writes stuck: every cell is now a square *)
  let squares_ok = ref true in
  for b = 0 to batches - 1 do
    for i = 0 to batch_size - 1 do
      if Tvar.unsafe_read store.((b * batch_size) + i) <> (i + 1) * (i + 1) then
        squares_ok := false
    done
  done;
  Fmt.pr "privatized in-place squaring: %s@." (if !squares_ok then "ok" else "MISMATCH");
  Fmt.pr "stm %a@." Stm.pp_mode_stats (Stm.stats ()).lazy_stats
