(* Content-hash LRU cache over Aot.compile.  Keys are the digest of the
   module's canonical encoding, so structurally identical modules share
   one compilation regardless of provenance.  The cache saves host work
   only: virtual-time charging for compilation stays with the caller
   (Runtime.load), which keeps simulated results bit-identical with and
   without the cache. *)

type entry = { e_compiled : Aot.compiled; mutable e_tick : int }

(* [Building] marks a key whose compile thunk is running on some
   domain.  Other domains landing on the same key block on [cond]
   instead of compiling a second time, so N concurrent loads of one
   content hash cost exactly one compilation (N-1 hits). *)
type slot = Ready of entry | Building

type t = {
  capacity : int;
  table : (string, slot) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let c_hit = Sim.Stats.Counter.make "wasm.cache.hit"
let c_miss = Sim.Stats.Counter.make "wasm.cache.miss"
let c_evict = Sim.Stats.Counter.make "wasm.cache.evict"

let create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Compile_cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create 32;
    lock = Mutex.create ();
    cond = Condition.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let hash_module m = Digest.to_hex (Digest.bytes (Encode.encode m))

let touch t e =
  t.tick <- t.tick + 1;
  e.e_tick <- t.tick

let ready_count t =
  Hashtbl.fold (fun _ s acc -> match s with Ready _ -> acc + 1 | Building -> acc) t.table 0

(* Evict the least-recently-used Ready entry (smallest tick).
   Building slots are never victims — evicting one would orphan its
   waiters.  Caller holds [t.lock]. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun key s acc ->
        match s with
        | Building -> acc
        | Ready e -> (
            match acc with
            | Some (_, best) when best.e_tick <= e.e_tick -> acc
            | _ -> Some (key, e)))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1;
      Sim.Stats.Counter.incr c_evict
  | None -> ()

(* Under [t.lock]: either return the ready entry (a hit), or claim the
   key for building.  A waiter woken after the builder failed finds the
   key absent and becomes the next builder — miss accounting then
   matches the sequential retry exactly. *)
let rec acquire t key =
  match Hashtbl.find_opt t.table key with
  | Some (Ready e) ->
      t.hits <- t.hits + 1;
      touch t e;
      `Hit e.e_compiled
  | Some Building ->
      Condition.wait t.cond t.lock;
      acquire t key
  | None ->
      t.misses <- t.misses + 1;
      Hashtbl.replace t.table key Building;
      `Build

let find_or_compile t m ~compile =
  let key = hash_module m in
  Mutex.lock t.lock;
  let outcome = acquire t key in
  Mutex.unlock t.lock;
  match outcome with
  | `Hit compiled ->
      Sim.Stats.Counter.incr c_hit;
      compiled
  | `Build ->
      Sim.Stats.Counter.incr c_miss;
      (* The lock is released while the thunk runs: compilation is the
         expensive part and other keys must stay serviceable.  Commit
         on success only: if [compile] raises (validation error,
         injected loader fault), the claim is withdrawn and waiters are
         woken — no half-built entry can be observed by later loads. *)
      let compiled =
        try compile ()
        with exn ->
          Mutex.lock t.lock;
          Hashtbl.remove t.table key;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          raise exn
      in
      Mutex.lock t.lock;
      if ready_count t >= t.capacity then evict_one t;
      let e = { e_compiled = compiled; e_tick = 0 } in
      touch t e;
      Hashtbl.replace t.table key (Ready e);
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      compiled

let length t =
  Mutex.lock t.lock;
  let n = ready_count t in
  Mutex.unlock t.lock;
  n

let hit_count t = t.hits
let miss_count t = t.misses
let eviction_count t = t.evictions

(* Built at module initialisation, not on first use: forcing one [lazy]
   from two domains at once raises [CamlinternalLazy.Undefined], and a
   server trajectory on a worker domain can be the cache's first user. *)
let global_cache = create ~capacity:128 ()
let global () = global_cache
