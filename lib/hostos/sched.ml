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
   identity permutation is a valid heap when every key is (t0, c). *)
let reset_pool pool t0 =
  Array.fill pool.free_at 0 (Array.length pool.free_at) t0;
  Array.iteri (fun i _ -> pool.heap.(i) <- i) pool.heap;
  Array.iteri (fun i _ -> pool.pos.(i) <- i) pool.pos;
  pool.busy <- Units.max Units.zero t0

(* Domain-local scratch pools, one per core count: per-attempt private
   pools in the serving trajectories are reset and reused instead of
   allocated fresh.  The caller owns the scratch until its next
   [scratch] call on the same domain with the same core count. *)
let scratch_key : (int, pool) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let scratch ~cores =
  let tbl = Domain.DLS.get scratch_key in
  match Hashtbl.find_opt tbl cores with
  | Some p ->
      reset_pool p Units.zero;
      p
  | None ->
      let p = pool_at ~cores Units.zero in
      Hashtbl.add tbl cores p;
      p

let busy_until pool = pool.busy

let schedule_on pool ?(ready = Units.zero) ?(dispatch_latency = Units.zero) durations =
  let dispatch_clock = ref ready in
  let place d =
    (* The orchestrator dispatches tasks one after another. *)
    dispatch_clock := Units.add !dispatch_clock dispatch_latency;
    let core = pool.heap.(0) in
    let start = Units.max pool.free_at.(core) !dispatch_clock in
    let start = Units.max start ready in
    let finish = Units.add start d in
    pool.free_at.(core) <- finish;
    pool.busy <- Units.max pool.busy finish;
    sift_down pool 0;
    { core; start; finish }
  in
  List.map place durations

let schedule ~cores ?(ready = Units.zero) ?(dispatch_latency = Units.zero) durations =
  if cores <= 0 then invalid_arg "Sched.schedule: cores must be positive";
  let p = pool_at ~cores ready in
  schedule_on p ~ready ~dispatch_latency durations

let makespan placements =
  List.fold_left (fun acc p -> Units.max acc p.finish) Units.zero placements

let fan_in_wait placements =
  let m = makespan placements in
  List.map (fun p -> Units.sub m p.finish) placements

let same_core_pairs placements =
  (* Pair tasks that run back to back on the same core, in that core's
     execution order — which need not be list order once tasks skip
     over busy cores. *)
  let arr = Array.of_list placements in
  let by_core = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_core p.core) in
      Hashtbl.replace by_core p.core (i :: prev))
    arr;
  let pairs = ref [] in
  Hashtbl.iter
    (fun _core idxs ->
      let ordered =
        List.sort
          (fun a b ->
            let c = Units.compare arr.(a).start arr.(b).start in
            if c <> 0 then c else Stdlib.compare a b)
          (List.rev idxs)
      in
      let rec consecutive = function
        | a :: (b :: _ as rest) ->
            pairs := (a, b) :: !pairs;
            consecutive rest
        | [ _ ] | [] -> ()
      in
      consecutive ordered)
    by_core;
  List.sort compare !pairs
