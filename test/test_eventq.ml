(* Differential test for the pairing-heap event queue: the heap is run
   side by side with a naive sorted-list reference model through
   thousands of seeded random inserts and pops and must agree on every
   pop — payload, timestamp and tie order.  The reference mirrors the
   heap's tie-break contract exactly: ordering is (time, priority,
   insertion sequence). *)

open Sim

(* --- Reference model: a plain list scanned linearly ---------------- *)

type ref_entry = { re_at : Units.time; re_pri : int; re_seq : int; re_id : int }

type model = { mutable entries : ref_entry list; mutable next_seq : int }

let model_create () = { entries = []; next_seq = 0 }

let model_insert m ~at ~pri ~id =
  let e = { re_at = at; re_pri = pri; re_seq = m.next_seq; re_id = id } in
  m.next_seq <- m.next_seq + 1;
  m.entries <- e :: m.entries

let entry_before a b =
  match Units.compare a.re_at b.re_at with
  | 0 -> if a.re_pri <> b.re_pri then a.re_pri < b.re_pri else a.re_seq < b.re_seq
  | c -> c < 0

let model_pop m =
  match m.entries with
  | [] -> None
  | first :: rest ->
      let best = List.fold_left (fun acc e -> if entry_before e acc then e else acc) first rest in
      m.entries <- List.filter (fun e -> e != best) m.entries;
      Some (best.re_at, best.re_id)

(* --- The differential driver --------------------------------------- *)

let check_pop_agrees name q model =
  let got = Eventq.pop q in
  let want = model_pop model in
  match (got, want) with
  | None, None -> ()
  | Some (at, id), Some (wat, wid) ->
      Alcotest.(check int) (name ^ ": payload") wid id;
      Alcotest.(check int64) (name ^ ": timestamp") (Units.to_ns wat) (Units.to_ns at)
  | Some _, None -> Alcotest.fail (name ^ ": heap popped, reference empty")
  | None, Some _ -> Alcotest.fail (name ^ ": heap empty, reference has events")

let test_differential () =
  (* 10^4 mixed inserts and pops per seed. *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let q : int Eventq.t = Eventq.create () in
      let model = model_create () in
      let next_id = ref 0 in
      let random_time () = Units.ns_f (float_of_int (Rng.int rng 1_000_000)) in
      for op = 1 to 10_000 do
        let name = Printf.sprintf "seed %d op %d" seed op in
        if Rng.int rng 8 < 5 then begin
          (* insert *)
          let id = !next_id in
          incr next_id;
          let at = random_time () and pri = Rng.int rng 3 in
          Eventq.push q ~at ~pri id;
          model_insert model ~at ~pri ~id
        end
        else check_pop_agrees name q model
      done;
      (* Drain both completely: remaining order must agree too. *)
      let rec drain n =
        if not (Eventq.is_empty q) || model.entries <> [] then begin
          check_pop_agrees (Printf.sprintf "seed %d drain %d" seed n) q model;
          drain (n + 1)
        end
      in
      drain 0;
      Alcotest.(check int) (Printf.sprintf "seed %d: empty" seed) 0 (Eventq.length q))
    [ 1; 7; 42; 1234 ]

(* Same-instant, same-priority events pop in insertion order. *)
let test_fifo_ties () =
  let q : int Eventq.t = Eventq.create () in
  let at = Units.ms 5 in
  for i = 0 to 99 do
    Eventq.push q ~at i
  done;
  for i = 0 to 99 do
    match Eventq.pop q with
    | Some (t, v) ->
        Alcotest.(check int) (Printf.sprintf "tie %d pops FIFO" i) i v;
        Alcotest.(check int64) "tie timestamp" (Units.to_ns at) (Units.to_ns t)
    | None -> Alcotest.fail "queue exhausted early"
  done

let test_priority_classes () =
  (* Same instant: lower priority class pops first, FIFO within it,
     regardless of interleaved insertion. *)
  let q : (int * int) Eventq.t = Eventq.create () in
  let at = Units.ms 1 in
  for i = 0 to 9 do
    Eventq.push q ~at ~pri:(i mod 2) (i mod 2, i)
  done;
  let popped = ref [] in
  let rec go () =
    match Eventq.pop q with
    | Some (_, pv) ->
        popped := pv :: !popped;
        go ()
    | None -> ()
  in
  go ();
  let expect =
    [ (0, 0); (0, 2); (0, 4); (0, 6); (0, 8); (1, 1); (1, 3); (1, 5); (1, 7); (1, 9) ]
  in
  Alcotest.(check (list (pair int int))) "class then FIFO" expect (List.rev !popped)

let suite =
  [
    Alcotest.test_case "differential vs sorted-list reference" `Quick test_differential;
    Alcotest.test_case "same-deadline FIFO" `Quick test_fifo_ties;
    Alcotest.test_case "priority classes break instant ties" `Quick test_priority_classes;
  ]
