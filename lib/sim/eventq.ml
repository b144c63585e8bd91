(* Time-ordered event queue as a binary min-heap over flat arrays:
   O(log n) push and pop, and neither allocates once the arrays have
   grown to the queue's high-water mark.

   Ordering is lexicographic on (at, pri, seq): virtual time first,
   then an explicit priority class (e.g. arrivals before same-instant
   completions), then insertion order — so runs remain fully
   deterministic and same-key events pop FIFO.  Slot [i] of the four
   arrays is one entry; the first [size] slots are the heap. *)

type 'a t = {
  mutable ats : Units.time array;
  mutable pris : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
      (* created by the first push, with that payload as filler: a slot
         past [size] may still point at a popped payload until a push
         overwrites it *)
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { ats = [||]; pris = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

let before t i j =
  let c = Units.compare t.ats.(i) t.ats.(j) in
  if c <> 0 then c < 0
  else
    let pi = t.pris.(i) and pj = t.pris.(j) in
    if pi <> pj then pi < pj else t.seqs.(i) < t.seqs.(j)

let move t ~src ~dst =
  t.ats.(dst) <- t.ats.(src);
  t.pris.(dst) <- t.pris.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.payloads.(dst) <- t.payloads.(src)

let swap t i j =
  let at = t.ats.(i) and pri = t.pris.(i) and seq = t.seqs.(i) and p = t.payloads.(i) in
  move t ~src:j ~dst:i;
  t.ats.(j) <- at;
  t.pris.(j) <- pri;
  t.seqs.(j) <- seq;
  t.payloads.(j) <- p

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let c = if r < t.size && before t r l then r else l in
    if before t c i then begin
      swap t i c;
      sift_down t c
    end
  end

let grow t payload =
  let cap = Stdlib.max 16 (2 * t.size) in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.ats <- widen t.ats Units.zero;
  t.pris <- widen t.pris 0;
  t.seqs <- widen t.seqs 0;
  t.payloads <- widen t.payloads payload

let push t ~at ?(pri = 0) payload =
  if t.size = Array.length t.seqs then grow t payload;
  let i = t.size in
  t.ats.(i) <- at;
  t.pris.(i) <- pri;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let next_at t =
  if t.size = 0 then invalid_arg "Eventq.next_at: empty queue";
  t.ats.(0)

let pop t =
  if t.size = 0 then invalid_arg "Eventq.pop: empty queue";
  let p = t.payloads.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    move t ~src:last ~dst:0;
    sift_down t 0
  end;
  p
