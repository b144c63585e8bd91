type event = { at : Units.time; category : string; label : string; detail : string }

(* The ring is materialised on first record, so an enabled-but-silent
   trace (e.g. a per-request shard on the serving path) costs a few
   words, not [capacity] slots. *)
type t = {
  mutable ring : event option array;
  capacity : int;
  mutable head : int;  (** Next write position. *)
  mutable stored : int;
  mutable dropped : int;
  mutable on : bool;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = [||]; capacity; head = 0; stored = 0; dropped = 0; on = false }

let enabled t = t.on
let set_enabled t v = t.on <- v

let record t ~at ~category ~label detail =
  if t.on then begin
    if Array.length t.ring = 0 then t.ring <- Array.make t.capacity None;
    let cap = t.capacity in
    if t.stored = cap then t.dropped <- t.dropped + 1 else t.stored <- t.stored + 1;
    t.ring.(t.head) <- Some { at; category; label; detail };
    t.head <- (t.head + 1) mod cap
  end

let recordf t ~at ~category ~label fmt =
  if t.on then Format.kasprintf (fun detail -> record t ~at ~category ~label detail) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let events t =
  if t.stored = 0 then []
  else begin
    let cap = t.capacity in
    let start = (t.head - t.stored + cap) mod cap in
    List.init t.stored (fun i ->
        match t.ring.((start + i) mod cap) with
        | Some e -> e
        | None -> assert false)
  end

let count t = t.stored
let dropped t = t.dropped

let filter t ~category =
  List.filter (fun e -> String.equal e.category category) (events t)

(* Only the region written since the last clear can hold events:
   before the ring wraps that is [0, head) (writes are sequential from
   0), and once it has wrapped ([stored = capacity]) it is the whole
   ring.  Clearing just that region keeps scrub-for-reuse O(live), not
   O(capacity) — a shard that recorded one sampled event clears one
   slot, not 4096. *)
let clear t =
  if t.stored > 0 then begin
    let upto = if t.stored = t.capacity then t.capacity else t.head in
    Array.fill t.ring 0 upto None
  end;
  t.head <- 0;
  t.stored <- 0;
  t.dropped <- 0

let pp_event fmt e =
  Format.fprintf fmt "[%a] %-10s %-20s %s" Units.pp e.at e.category e.label e.detail

let dump t =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_event) (events t))

let global = create ()

(* Graft a shard's events onto [t] with times shifted by [offset].
   Replaying through [record] keeps ring-buffer drop accounting
   identical to having recorded the events directly. *)
let import t ~offset shard =
  List.iter
    (fun e ->
      record t ~at:(Units.add e.at offset) ~category:e.category ~label:e.label
        e.detail)
    (events shard)

(* Domain-local "current" buffer: main domain -> [global], workers
   default to a private instance until [Par.with_shard] installs a
   per-task shard. *)
let current_key = Domain.DLS.new_key (fun () -> create ())
let () = Domain.DLS.set current_key global
let current () = Domain.DLS.get current_key
let set_current t = Domain.DLS.set current_key t
