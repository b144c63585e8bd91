type id = int

let none = 0

type span = {
  sp_id : id;
  sp_parent : id;
  sp_category : string;
  sp_label : string;
  sp_begin : Units.time;
  mutable sp_end : Units.time;
  mutable sp_attrs : (string * string) list;
}

type t = {
  mutable store : span array;
  mutable len : int;
  mutable on : bool;
  mutable amb : id;
}

let dummy =
  {
    sp_id = none;
    sp_parent = none;
    sp_category = "";
    sp_label = "";
    sp_begin = Units.zero;
    sp_end = Units.zero;
    sp_attrs = [];
  }

(* The store is allocated on the first span, so a collector that
   records nothing (a [Par] shard with spans off, or on an unsampled
   request) costs a few words. *)
let create () = { store = [||]; len = 0; on = false; amb = none }

let global = create ()

(* Domain-local "current" collector.  The main domain's slot is bound
   to [global] at module init; worker domains default to a private
   throwaway instance so a task that forgets to install a shard can
   never race on [global].  [Par.with_shard] swaps this slot around
   each parallel task. *)
let current_key = Domain.DLS.new_key create
let () = Domain.DLS.set current_key global
let current () = Domain.DLS.get current_key
let set_current t = Domain.DLS.set current_key t

let enabled t = t.on
let set_enabled t v = t.on <- v

let clear t =
  Array.fill t.store 0 t.len dummy;
  t.len <- 0;
  t.amb <- none

let push t sp =
  if t.len = Array.length t.store then begin
    let bigger = Array.make (Stdlib.max 64 (2 * t.len)) dummy in
    Array.blit t.store 0 bigger 0 t.len;
    t.store <- bigger
  end;
  t.store.(t.len) <- sp;
  t.len <- t.len + 1

let begin_span t ?parent ~at ~category ~label () =
  if not t.on then none
  else begin
    let parent = match parent with Some p -> p | None -> t.amb in
    let id = t.len + 1 in
    push t
      {
        sp_id = id;
        sp_parent = parent;
        sp_category = category;
        sp_label = label;
        sp_begin = at;
        sp_end = at;
        sp_attrs = [];
      };
    id
  end

let find t id = if id >= 1 && id <= t.len then Some t.store.(id - 1) else None

let end_span t id ~at =
  if id <> none then
    match find t id with
    | Some sp -> sp.sp_end <- Units.max sp.sp_begin at
    | None -> ()

let instant t ?parent ~at ~category ~label () =
  if t.on then ignore (begin_span t ?parent ~at ~category ~label ())

let set_attr t id key value =
  if id <> none then
    match find t id with
    | Some sp -> sp.sp_attrs <- sp.sp_attrs @ [ (key, value) ]
    | None -> ()

let ambient t = t.amb
let set_ambient t id = t.amb <- id

let count t = t.len

(* Graft a shard's spans onto [t], shifting times by [offset] and
   remapping ids.  Shard ids are dense 1..len (see [begin_span]), so
   [base + id] keeps [t] dense too.  A shard-local root (parent =
   [none]) is re-parented under [attach], which lets the merge loop
   hang each task's subtree off the span it creates for that task.
   Spans are copied, never aliased, so later mutation of the shard
   cannot corrupt the merged timeline. *)
let import t ~offset ~attach shard =
  if t.on then begin
    let base = t.len in
    for i = 0 to shard.len - 1 do
      let sp = shard.store.(i) in
      let parent =
        if sp.sp_parent = none then attach else base + sp.sp_parent
      in
      push t
        {
          sp with
          sp_id = base + sp.sp_id;
          sp_parent = parent;
          sp_begin = Units.add sp.sp_begin offset;
          sp_end = Units.add sp.sp_end offset;
        }
    done
  end

let spans t = List.init t.len (fun i -> t.store.(i))

let children t id =
  List.filter (fun sp -> sp.sp_parent = id && sp.sp_id <> id) (spans t)

let roots t = children t none
