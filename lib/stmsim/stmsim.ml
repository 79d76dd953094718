(* Operational STM simulator.

   §3 of the paper discusses how real STM implementations — eager (undo
   log, in-place writes) and lazy (redo-log, commit-time write-back)
   versioning — interact with mixed transactional/plain access.  This
   module implements four strategies over a sequentially consistent host
   memory with an exhaustively explored fine-grained scheduler, so the
   classic anomalies can be *exhibited*, not just discussed:

     - delayed write-back breaking privatization (lazy),
     - speculative lost update and dirty reads via rollback (eager),
     - overlapped commit write-back (lazy, D.4),

   and so the quiescence fence of §5 — modelled as blocking until no
   in-flight transaction has touched the fenced location — can be shown
   to remove exactly the mixed-race anomalies.

   Beyond the classic eager/lazy pair, two further commit protocols from
   the Manticore lineage (see SNIPPETS.md):

     - [Partial]: lazy versioning plus *partial aborts*.  A checkpoint
       of the continuation, environment, read set and write buffer is
       taken before each of the first [checkpoints] memory reads
       (READ_SET_BOUND in boundedHybridPartialSTM).  On commit-time
       validation failure the transaction rolls back only to the
       checkpoint at the oldest invalidated read, retaining the
       still-valid prefix, instead of restarting from the beginning.
       [checkpoints = 0] degenerates to exactly [Lazy].

     - [Norec]: value-based revalidation against a single global commit
       counter and *no per-location ownership metadata*.  A writer
       commit takes the global sequence lock (odd = write-back in
       flight), so transactional reads and competing commits stall
       while a write-back runs — but PLAIN accesses still interleave
       with it, which is what keeps the mixed-access windows §3 cares
       about.  In-flight transactions revalidate their whole read set
       by value whenever the counter moved.

   Commit write-back and rollback are sequences of individually scheduled
   steps: other threads' PLAIN accesses interleave with them (transactional
   accesses are protected by validation/locking in real STMs; plain ones
   are not — that is the whole point of §3).

   Transactions themselves must therefore be serializable against each
   other: lazy validation models the per-location write locks of a
   TL2-style STM, so a thread cannot validate while an in-flight
   write-back holds a location the validator read or wants to write
   (otherwise two conflicting transactions could both validate against
   pre-commit memory and write back — tx-tx write skew, which no model
   in the paper admits; found by `tmx fuzz`, oracle stmsim-enum, seed
   42).  Commits with disjoint footprints still overlap, which is what
   keeps the privatization anomaly: the small flag transaction commits
   in the middle of the big transaction's write-back.  NOrec's global
   lock forbids that overlap — the privatization anomaly is gone by
   construction, at the cost of serialized commits. *)

open Tmx_lang
open Tmx_exec

type strategy = Eager | Lazy | Partial | Norec

let strategy_name = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Partial -> "partial"
  | Norec -> "norec"

type config = {
  strategy : strategy;
  fuel : int; (* loop unrolling bound *)
  max_retries : int; (* validation-failure retries (full or partial) *)
  checkpoints : int; (* partial: READ_SET_BOUND-style checkpoint budget *)
  atomic_commit : bool; (* write-back in one indivisible step *)
  max_paths : int;
}

let default_config =
  {
    strategy = Lazy;
    fuel = 6;
    max_retries = 2;
    checkpoints = 4;
    atomic_commit = false;
    max_paths = 2_000_000;
  }

type item = S of Ast.stmt | End_atomic

(* A partial-abort checkpoint: the whole speculative state just before
   the memory read that creates read-set entry [p].  Restoring it
   retains reads 0..p-1 (oldest-first) and re-executes from the read. *)
type chk = {
  chk_items : item list;
  chk_env : Proto.env;
  chk_reads : (string * int) list;
  chk_buffer : (string * int) list;
  chk_accessed : string list;
}

type txn = {
  reads : (string * int) list; (* read set: location, observed value (newest first) *)
  buffer : (string * int) list; (* lazy/partial/norec: pending writes (newest first) *)
  undo : (string * int) list; (* eager: old values, newest first *)
  accessed : string list;
  saved_items : item list; (* continuation at Begin, for retry *)
  saved_env : Proto.env;
  chks : (int * chk) list; (* partial: checkpoint per read position *)
  rv : int; (* norec: global sequence value this txn last validated at *)
}

type phase =
  | Ready
  | In_txn of txn
  | Write_back of txn * (string * int) list (* remaining writes, oldest first *)
  | Roll_back of txn * (string * int) list * item list
    (* remaining undo entries; continuation after the aborted block *)

type tstate = { items : item list; env : Proto.env; phase : phase; fuel : int; retries : int }

type state = { mem : (string * int) list; seq : int; threads : tstate list }
(* [seq] is NOrec's global commit counter / sequence lock: even = free,
   odd = a writer's commit write-back is in flight.  Unused by the other
   strategies. *)

let mem_get mem x = Option.value (List.assoc_opt x mem) ~default:0
let mem_set mem x v = (x, v) :: List.remove_assoc x mem

(* Is a transaction of thread [t] in flight (running, publishing, or
   rolling back)?  Quiescence must wait for every in-flight transaction,
   not just those that have already touched the fenced location: a
   transaction that has so far only read the flag may still write the
   privatized location later (WF12 constrains the whole transaction
   span).  This matches the grace-period implementation in the runtime's
   registry. *)
let in_flight t =
  match t.phase with
  | Ready -> false
  | In_txn _ | Write_back _ | Roll_back _ -> true

let skip_block items =
  let rec go = function
    | End_atomic :: rest -> rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go items

type result = {
  outcomes : Outcome.t list;
  paths : int;
  fuel_exhausted : bool; (* loop-unrolling fuel ran out on some path *)
  retries_exhausted : bool; (* abort/retry budget ran out on some path *)
  truncated : bool; (* fuel_exhausted || retries_exhausted *)
  capped : bool;
}

let run ?(config = default_config) (program : Ast.program) =
  (match Ast.validate program with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Stmsim.run: " ^ msg));
  let outcomes : (Outcome.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let paths = ref 0 and capped = ref false in
  let fuel_exhausted = ref false and retries_exhausted = ref false in
  let locs = ref program.locs in
  let note_loc x = if not (List.mem x !locs) then locs := !locs @ [ x ] in

  let finish (st : state) =
    incr paths;
    let outcome =
      Outcome.make
        ~envs:(List.map (fun t -> t.env) st.threads)
        ~mem:(List.map (fun x -> (x, mem_get st.mem x)) !locs)
    in
    Hashtbl.replace outcomes outcome ()
  in

  (* one scheduled step of thread [i]; returns successor states *)
  let step (st : state) i (t : tstate) : state list =
    let set_thread ?(seq = st.seq) t' =
      { st with seq; threads = List.mapi (fun j u -> if j = i then t' else u) st.threads }
    in
    let set_both ?(seq = st.seq) mem t' =
      { mem; seq; threads = List.mapi (fun j u -> if j = i then t' else u) st.threads }
    in
    (* full abort and re-execute the block, consuming a retry *)
    let full_abort t (txn : txn) =
      if t.retries <= 0 then begin
        retries_exhausted := true;
        []
      end
      else
        [
          set_thread
            {
              t with
              items = txn.saved_items;
              env = txn.saved_env;
              phase = Ready;
              retries = t.retries - 1;
            };
        ]
    in
    (* value-based read-set validation against current memory *)
    let validate (txn : txn) =
      List.for_all (fun (x, v) -> mem_get st.mem x = v) txn.reads
    in
    match t.phase with
    | Write_back (txn, writes) -> (
        match writes with
        | [] ->
            (* the final write-back step releases NOrec's sequence lock
               (odd -> even, i.e. one full commit-counter increment) *)
            let seq = if config.strategy = Norec then st.seq + 1 else st.seq in
            [ set_thread ~seq { t with phase = Ready } ]
        | (x, v) :: rest ->
            [ set_both (mem_set st.mem x v) { t with phase = Write_back (txn, rest) } ])
    | Roll_back (txn, undo, continuation) -> (
        match undo with
        | [] ->
            [
              set_thread
                { t with phase = Ready; items = continuation; env = txn.saved_env };
            ]
        | (x, v) :: rest ->
            [ set_both (mem_set st.mem x v) { t with phase = Roll_back (txn, rest, continuation) } ])
    | Ready | In_txn _ -> (
        match t.items with
        | [] -> []
        | End_atomic :: rest -> (
            match t.phase with
            | In_txn txn -> (
                match config.strategy with
                | Eager ->
                    (* in-place writes already visible; commit is trivial *)
                    [ set_thread { t with items = rest; phase = Ready } ]
                | Lazy | Partial ->
                    (* per-location commit locks: an in-flight write-back
                       holds its whole write set, and validation is not
                       schedulable while those locks cover a location this
                       transaction read or wants to write.  A successful
                       validation transitions straight into Write_back, so
                       conflicting commits are mutually exclusive, while
                       plain accesses — and commits with disjoint
                       footprints — still interleave with write-back *)
                    let locked_locs =
                      List.concat
                        (List.mapi
                           (fun j u ->
                             match u.phase with
                             | Write_back (wtxn, _) when j <> i ->
                                 List.map fst wtxn.buffer
                             | _ -> [])
                           st.threads)
                    in
                    let commit_locked =
                      List.exists (fun (x, _) -> List.mem x locked_locs) txn.reads
                      || List.exists (fun (x, _) -> List.mem x locked_locs) txn.buffer
                    in
                    if commit_locked then []
                    else if
                      (* value-based validation: every read-set entry is a
                         memory observation (buffer-forwarded reads never
                         enter it), so each must still hold — including
                         reads of locations this transaction then wrote *)
                      validate txn
                    then
                      let writes = List.rev txn.buffer in
                      if config.atomic_commit then
                        [
                          set_both
                            (List.fold_left (fun m (x, v) -> mem_set m x v) st.mem writes)
                            { t with items = rest; phase = Ready };
                        ]
                      else [ set_thread { t with items = rest; phase = Write_back (txn, writes) } ]
                    else if config.strategy = Partial && config.checkpoints > 0 then begin
                      (* partial abort: resume at the checkpoint of the
                         oldest invalidated read (clamped to the
                         checkpoint budget), retaining the valid prefix
                         of the read set and write buffer *)
                      let oldest_invalid =
                        let rec find j = function
                          | [] -> None
                          | (x, v) :: olds ->
                              if mem_get st.mem x <> v then Some j else find (j + 1) olds
                        in
                        find 0 (List.rev txn.reads)
                      in
                      match oldest_invalid with
                      | None -> assert false
                      | Some j ->
                          if t.retries <= 0 then begin
                            retries_exhausted := true;
                            []
                          end
                          else
                            let p = min j (config.checkpoints - 1) in
                            let chk = List.assoc p txn.chks in
                            let txn' =
                              {
                                txn with
                                reads = chk.chk_reads;
                                buffer = chk.chk_buffer;
                                accessed = chk.chk_accessed;
                                chks = List.filter (fun (q, _) -> q <= p) txn.chks;
                              }
                            in
                            [
                              set_thread
                                {
                                  t with
                                  items = chk.chk_items;
                                  env = chk.chk_env;
                                  phase = In_txn txn';
                                  retries = t.retries - 1;
                                };
                            ]
                    end
                    else full_abort t txn
                | Norec ->
                    (* global sequence lock: no commit while a writer's
                       write-back is in flight (seq odd).  Validation is
                       value-based over the whole read set — plain writes
                       do not bump seq, so the counter alone cannot
                       certify the reads *)
                    if st.seq land 1 = 1 then []
                    else if not (validate txn) then full_abort t txn
                    else if txn.buffer = [] then
                      (* read-only commits take no lock and bump nothing *)
                      [ set_thread { t with items = rest; phase = Ready } ]
                    else
                      let writes = List.rev txn.buffer in
                      if config.atomic_commit then
                        [
                          set_both ~seq:(st.seq + 2)
                            (List.fold_left (fun m (x, v) -> mem_set m x v) st.mem writes)
                            { t with items = rest; phase = Ready };
                        ]
                      else
                        (* acquire the lock (seq -> odd) and publish one
                           write per scheduled step; the final Write_back
                           step releases it *)
                        [
                          set_thread ~seq:(st.seq + 1)
                            { t with items = rest; phase = Write_back (txn, writes) };
                        ])
            | _ -> assert false)
        | S s :: rest -> (
            match (s : Ast.stmt) with
            | Skip -> [ set_thread { t with items = rest } ]
            | Assign (r, e) ->
                [ set_thread { t with items = rest; env = Proto.env_set t.env r (Proto.eval t.env e) } ]
            | If (c, tb, eb) ->
                let branch = if Proto.eval t.env c <> 0 then tb else eb in
                [ set_thread { t with items = List.map (fun s -> S s) branch @ rest } ]
            | While (c, b) ->
                if Proto.eval t.env c = 0 then [ set_thread { t with items = rest } ]
                else if t.fuel <= 0 then begin
                  fuel_exhausted := true;
                  []
                end
                else
                  [
                    set_thread
                      {
                        t with
                        items = List.map (fun s -> S s) b @ (S (While (c, b)) :: rest);
                        fuel = t.fuel - 1;
                      };
                  ]
            | Atomic body -> (
                match t.phase with
                | Ready ->
                    (* NOrec samples the commit counter at begin; a begin
                       during a write-back would sample an odd (locked)
                       value, so it waits, like the read path *)
                    if config.strategy = Norec && st.seq land 1 = 1 then []
                    else
                      let items = List.map (fun s -> S s) body @ (End_atomic :: rest) in
                      [
                        set_thread
                          {
                            t with
                            items;
                            phase =
                              In_txn
                                {
                                  reads = [];
                                  buffer = [];
                                  undo = [];
                                  accessed = [];
                                  saved_items = S s :: rest;
                                  saved_env = t.env;
                                  chks = [];
                                  rv = st.seq;
                                };
                          };
                      ]
                | _ -> assert false)
            | Abort -> (
                match t.phase with
                | In_txn txn -> (
                    let continuation = skip_block rest in
                    match config.strategy with
                    | Lazy | Partial | Norec ->
                        (* discard the buffer and register effects *)
                        [
                          set_thread
                            {
                              t with
                              items = continuation;
                              phase = Ready;
                              env = txn.saved_env;
                            };
                        ]
                    | Eager ->
                        (* roll back the undo log, one visible write at a
                           time *)
                        [ set_thread { t with phase = Roll_back (txn, txn.undo, continuation); items = [] } ])
                | _ -> invalid_arg "Stmsim: abort outside transaction")
            | Load (r, lv) -> (
                let x = Proto.resolve t.env lv in
                note_loc x;
                match t.phase with
                | In_txn txn -> (
                    (* a buffer-forwarded read observes the transaction's
                       own pending write, not memory, so it does not
                       enter the read set — everything that IS in the
                       read set is a memory observation and must validate
                       against memory at commit, even if the transaction
                       later overwrites the location itself *)
                    let forwarded =
                      match config.strategy with
                      | Lazy | Partial | Norec -> List.assoc_opt x txn.buffer
                      | Eager -> None
                    in
                    match forwarded with
                    | Some v ->
                        let txn =
                          {
                            txn with
                            accessed =
                              (if List.mem x txn.accessed then txn.accessed
                               else x :: txn.accessed);
                          }
                        in
                        [
                          set_thread
                            { t with items = rest; env = Proto.env_set t.env r v; phase = In_txn txn };
                        ]
                    | None ->
                        (* memory observation *)
                        if config.strategy = Norec && st.seq land 1 = 1 then
                          (* a writer's write-back is in flight: NOrec
                             readers spin on the sequence lock *)
                          []
                        else if
                          config.strategy = Norec && st.seq <> txn.rv && not (validate txn)
                        then
                          (* the commit counter moved and the read set no
                             longer revalidates: abort now rather than
                             keep computing on inconsistent values *)
                          full_abort t txn
                        else
                          let txn =
                            if config.strategy = Norec then { txn with rv = st.seq } else txn
                          in
                          let fresh = not (List.mem_assoc x txn.reads) in
                          let p = List.length txn.reads in
                          let txn =
                            (* checkpoint the continuation just before the
                               read that creates read-set entry [p], up to
                               the READ_SET_BOUND-style budget *)
                            if
                              config.strategy = Partial && fresh
                              && p < config.checkpoints
                              && not (List.mem_assoc p txn.chks)
                            then
                              {
                                txn with
                                chks =
                                  ( p,
                                    {
                                      chk_items = S s :: rest;
                                      chk_env = t.env;
                                      chk_reads = txn.reads;
                                      chk_buffer = txn.buffer;
                                      chk_accessed = txn.accessed;
                                    } )
                                  :: txn.chks;
                              }
                            else txn
                          in
                          let v = mem_get st.mem x in
                          let txn =
                            {
                              txn with
                              reads = (if fresh then (x, v) :: txn.reads else txn.reads);
                              accessed =
                                (if List.mem x txn.accessed then txn.accessed
                                 else x :: txn.accessed);
                            }
                          in
                          [
                            set_thread
                              { t with items = rest; env = Proto.env_set t.env r v; phase = In_txn txn };
                          ])
                | Ready ->
                    [
                      set_thread
                        { t with items = rest; env = Proto.env_set t.env r (mem_get st.mem x) };
                    ]
                | _ -> assert false)
            | Store (lv, e) -> (
                let x = Proto.resolve t.env lv in
                note_loc x;
                let v = Proto.eval t.env e in
                match t.phase with
                | In_txn txn -> (
                    let accessed =
                      if List.mem x txn.accessed then txn.accessed else x :: txn.accessed
                    in
                    match config.strategy with
                    | Lazy | Partial | Norec ->
                        let txn =
                          { txn with buffer = (x, v) :: List.remove_assoc x txn.buffer; accessed }
                        in
                        [ set_thread { t with items = rest; phase = In_txn txn } ]
                    | Eager ->
                        let txn =
                          { txn with undo = (x, mem_get st.mem x) :: txn.undo; accessed }
                        in
                        [ set_both (mem_set st.mem x v) { t with items = rest; phase = In_txn txn } ])
                | Ready -> [ set_both (mem_set st.mem x v) { t with items = rest } ]
                | _ -> assert false)
            | Fence x ->
                note_loc x;
                (* quiescence: enabled only when no other thread has an
                   in-flight transaction *)
                let blocked =
                  List.exists
                    (fun (j, u) -> j <> i && in_flight u)
                    (List.mapi (fun j u -> (j, u)) st.threads)
                in
                if blocked then [] else [ set_thread { t with items = rest } ]))
  in

  let rec explore (st : state) =
    if !paths >= config.max_paths then capped := true
    else begin
      let successors =
        List.concat
          (List.mapi
             (fun i t ->
               match t.phase with
               | Write_back _ | Roll_back _ -> step st i t
               | _ -> if t.items = [] then [] else step st i t)
             st.threads)
      in
      if successors = [] then begin
        (* done, deadlocked on a fence, or dead (budget exhausted) *)
        let all_done =
          List.for_all
            (fun t -> t.items = [] && t.phase = Ready)
            st.threads
        in
        if all_done then finish st
      end
      else List.iter explore successors
    end
  in
  explore
    {
      mem = [];
      seq = 0;
      threads =
        List.map
          (fun th ->
            {
              items = List.map (fun s -> S s) th;
              env = [];
              phase = Ready;
              fuel = config.fuel;
              retries = config.max_retries;
            })
          program.threads;
    };
  {
    outcomes = Outcome.dedup (Hashtbl.fold (fun o () acc -> o :: acc) outcomes []);
    paths = !paths;
    fuel_exhausted = !fuel_exhausted;
    retries_exhausted = !retries_exhausted;
    truncated = !fuel_exhausted || !retries_exhausted;
    capped = !capped;
  }

(* Anomalies: outcomes of the STM run [stm] of [program] that the atomic
   reference semantics (Sc) does not exhibit. *)
let anomalies ?sc_config stm program =
  let ref_outcomes = Sc.outcomes (Sc.run ?config:sc_config program) in
  List.filter
    (fun o -> not (List.exists (Outcome.equal o) ref_outcomes))
    stm.outcomes
