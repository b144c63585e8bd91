open Sim

type placement = { core : int; start : Units.time; finish : Units.time }

(* The pool keeps an index heap over cores keyed by
   (free_at, core index), so picking the next core is O(log cores)
   instead of a linear scan per task.  The secondary key reproduces the
   scan's tie-break exactly: among equally-free cores, the lowest
   index wins.  [pos] tracks each core's slot in [heap] so a core's
   key change re-sifts in O(log cores). *)
type pool = {
  free_at : Units.time array;
  heap : int array;  (** Core indices, min-heap by (free_at, index). *)
  pos : int array;  (** pos.(c) = index of core c within [heap]. *)
  mutable busy : Units.time;
      (** Running maximum of [free_at] (and [Units.zero]), maintained
          incrementally so {!busy_until} is O(1) instead of an
          O(cores) fold per call. *)
}

let core_before pool a b =
  let c = Units.compare pool.free_at.(a) pool.free_at.(b) in
  if c <> 0 then c < 0 else a < b

let heap_swap pool i j =
  let a = pool.heap.(i) and b = pool.heap.(j) in
  pool.heap.(i) <- b;
  pool.heap.(j) <- a;
  pool.pos.(b) <- i;
  pool.pos.(a) <- j

let rec sift_down pool i =
  let n = Array.length pool.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && core_before pool pool.heap.(l) pool.heap.(!smallest) then smallest := l;
  if r < n && core_before pool pool.heap.(r) pool.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    heap_swap pool i !smallest;
    sift_down pool !smallest
  end

(* All cores start equally free, so the identity permutation is a
   valid heap: key (t0, c) orders by index alone. *)
let pool_at ~cores t0 =
  if cores <= 0 then invalid_arg "Sched.pool: cores must be positive";
  {
    free_at = Array.make cores t0;
    heap = Array.init cores Fun.id;
    pos = Array.init cores Fun.id;
    busy = Units.max Units.zero t0;
  }

let pool ~cores = pool_at ~cores Units.zero

let pool_cores pool = Array.length pool.free_at

(* Rewind a pool to the all-cores-free state at [t0] in place: the
   identity permutation is a valid heap when every key is (t0, c).  It
   runs once per serving attempt, so it is a plain loop, no closure. *)
let reset_pool pool t0 =
  let n = Array.length pool.free_at in
  Array.fill pool.free_at 0 n t0;
  for i = 0 to n - 1 do
    pool.heap.(i) <- i;
    pool.pos.(i) <- i
  done;
  pool.busy <- Units.max Units.zero t0

(* Domain-local scratch pools, one per core count: per-attempt private
   pools in the serving trajectories are reset and reused instead of
   allocated fresh.  The caller owns the scratch until its next
   [scratch] call on the same domain with the same core count. *)
let scratch_key : (int, pool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let scratch ~cores =
  let tbl = Domain.DLS.get scratch_key in
  match Hashtbl.find tbl cores with
  | p ->
      reset_pool p Units.zero;
      p
  | exception Not_found ->
      let p = pool_at ~cores Units.zero in
      Hashtbl.add tbl cores p;
      p

let busy_until pool = pool.busy

(* Put one task dispatched at [dispatch] on the earliest-free core
   ([heap.(0)], lowest index among ties), never before [ready]; returns
   its start. *)
let claim pool ~ready ~dispatch d =
  let core = pool.heap.(0) in
  let start = Units.max (Units.max pool.free_at.(core) dispatch) ready in
  let finish = Units.add start d in
  pool.free_at.(core) <- finish;
  pool.busy <- Units.max pool.busy finish;
  sift_down pool 0;
  start

let schedule_on pool ?(ready = Units.zero) ?(dispatch_latency = Units.zero) durations =
  let dispatch_clock = ref ready in
  let place d =
    (* The orchestrator dispatches tasks one after another. *)
    dispatch_clock := Units.add !dispatch_clock dispatch_latency;
    let core = pool.heap.(0) in
    let start = claim pool ~ready ~dispatch:!dispatch_clock d in
    { core; start; finish = Units.add start d }
  in
  List.map place durations

let makespan_on pool ~ready ~dispatch_latency durations =
  let rec go dispatch acc = function
    | [] -> acc
    | d :: rest ->
        let dispatch = Units.add dispatch dispatch_latency in
        let start = claim pool ~ready ~dispatch d in
        go dispatch (Units.max acc (Units.add start d)) rest
  in
  go ready Units.zero durations

let schedule ~cores ?(ready = Units.zero) ?(dispatch_latency = Units.zero) durations =
  if cores <= 0 then invalid_arg "Sched.schedule: cores must be positive";
  let p = pool_at ~cores ready in
  schedule_on p ~ready ~dispatch_latency durations

let makespan placements =
  List.fold_left (fun acc p -> Units.max acc p.finish) Units.zero placements

let fan_in_wait placements =
  let m = makespan placements in
  List.map (fun p -> Units.sub m p.finish) placements
