(* Time-ordered event queue as a pairing heap: O(1) push and amortised
   O(log n) pop.

   Ordering is lexicographic on (at, pri, seq): virtual time first,
   then an explicit priority class (e.g. arrivals before same-instant
   completions), then insertion order — so runs remain fully
   deterministic and same-key events pop FIFO. *)

type 'a node = {
  at : Units.time;
  pri : int;
  seq : int;
  payload : 'a;
  mutable child : 'a node option;  (** Leftmost child. *)
  mutable sibling : 'a node option;  (** Next younger sibling. *)
}

type 'a t = {
  mutable root : 'a node option;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { root = None; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

let before a b =
  let c = Units.compare a.at b.at in
  if c <> 0 then c < 0
  else if a.pri <> b.pri then a.pri < b.pri
  else a.seq < b.seq

(* Meld two heap roots. *)
let meld a b =
  if before a b then begin
    b.sibling <- a.child;
    a.child <- Some b;
    a
  end
  else begin
    a.sibling <- b.child;
    b.child <- Some a;
    b
  end

(* Two-pass pairing of a sibling list. *)
let rec merge_pairs = function
  | None -> None
  | Some n -> (
      let n2 = n.sibling in
      n.sibling <- None;
      match n2 with
      | None -> Some n
      | Some m ->
          let rest = m.sibling in
          m.sibling <- None;
          let pair = meld n m in
          (match merge_pairs rest with
          | None -> Some pair
          | Some r -> Some (meld pair r)))

let push t ~at ?(pri = 0) payload =
  let n = { at; pri; seq = t.next_seq; payload; child = None; sibling = None } in
  t.next_seq <- t.next_seq + 1;
  t.root <- (match t.root with None -> Some n | Some r -> Some (meld n r));
  t.size <- t.size + 1

let pop t =
  match t.root with
  | None -> None
  | Some r ->
      t.root <- merge_pairs r.child;
      r.child <- None;
      t.size <- t.size - 1;
      Some (r.at, r.payload)

let peek t = match t.root with None -> None | Some r -> Some (r.at, r.payload)
