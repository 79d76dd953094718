(* A bank built on the STM runtime: concurrent transfers with an invariant
   audit, in both lazy (TL2) and eager (undo-log) modes, plus a
   publication-style account-opening idiom.

   Run with:  dune exec examples/bank.exe *)

open Tmx_runtime

let accounts = 32
let initial = 1000

type bank = { balances : Tvar.t array; open_flags : Tvar.t array }

let make_bank () =
  {
    balances = Array.init accounts (fun _ -> Tvar.make initial);
    open_flags = Array.init accounts (fun i -> Tvar.make (if i < accounts / 2 then 1 else 0));
  }

let transfer ~mode bank a b amount =
  Stm.atomically ~mode (fun tx ->
      if Stm.read tx bank.open_flags.(a) = 0 || Stm.read tx bank.open_flags.(b) = 0
      then Stm.abort tx
      else begin
        let va = Stm.read tx bank.balances.(a) in
        if va < amount then false
        else begin
          Stm.write tx bank.balances.(a) (va - amount);
          Stm.write tx bank.balances.(b) (Stm.read tx bank.balances.(b) + amount);
          true
        end
      end)

(* publication: initialize the balance plainly, then open the account
   transactionally — the §1 publication idiom *)
let open_account ~mode bank i seed_balance =
  Tvar.unsafe_write bank.balances.(i) seed_balance;
  ignore (Stm.atomically ~mode (fun tx -> Stm.write tx bank.open_flags.(i) 1))

let audit ~mode bank =
  Option.get
    (Stm.atomically ~mode (fun tx ->
         let total = ref 0 and opened = ref 0 in
         for i = 0 to accounts - 1 do
           if Stm.read tx bank.open_flags.(i) = 1 then begin
             incr opened;
             total := !total + Stm.read tx bank.balances.(i)
           end
         done;
         (!opened, !total)))

let run_mode mode name =
  let bank = make_bank () in
  let stop = Atomic.make false in
  let transfers = Atomic.make 0 and vetoed = Atomic.make 0 in
  let worker seed () =
    let st = ref seed in
    let rand m =
      st := (!st * 48271 + 11) land 0x3fffffff;
      !st mod m
    in
    for _ = 1 to 3000 do
      let a = rand accounts and b = rand accounts and amount = rand 50 in
      if a <> b then
        match transfer ~mode bank a b amount with
        | Some _ -> Atomic.incr transfers
        | None -> Atomic.incr vetoed (* a party was not open yet *)
    done
  in
  let opener () =
    for i = accounts / 2 to accounts - 1 do
      open_account ~mode bank i initial;
      Domain.cpu_relax ()
    done;
    Atomic.set stop true
  in
  let auditor () =
    let violations = ref 0 in
    while not (Atomic.get stop) do
      let opened, total = audit ~mode bank in
      (* money is conserved among open accounts: every open account was
         seeded with [initial] and transfers only move money between open
         accounts *)
      if total <> opened * initial then incr violations
    done;
    !violations
  in
  let ds = [ Domain.spawn (worker 7); Domain.spawn (worker 1009) ] in
  let op = Domain.spawn opener in
  let au = Domain.spawn auditor in
  List.iter Domain.join ds;
  Domain.join op;
  let violations = Domain.join au in
  let opened, total = audit ~mode bank in
  Fmt.pr
    "%-6s transfers:%d vetoed:%d — final: %d accounts open, total=%d \
     (expected %d), audit violations:%d@."
    name (Atomic.get transfers) (Atomic.get vetoed) opened total
    (opened * initial) violations

let () =
  run_mode Stm.Lazy "lazy";
  run_mode Stm.Eager "eager";
  let s = Stm.stats () in
  Fmt.pr "lazy  %a@.eager %a@." Stm.pp_mode_stats s.lazy_stats Stm.pp_mode_stats
    s.eager_stats
