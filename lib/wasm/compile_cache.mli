(** Content-hash LRU cache over {!Aot.compile}.

    Keys are the MD5 digest of the module's canonical {!Encode}
    serialization, so structurally identical modules share one
    compilation regardless of provenance (warm-pool clones, repeated
    gateway registrations, ...).

    The cache is a host-time optimization only: callers keep charging
    the full virtual compilation cost on every load, so simulated
    results are bit-identical with and without it.  Entries are
    committed only after the compile thunk returns — a thunk that
    raises (validation error, injected loader fault) leaves the cache
    untouched. *)

type t

val create : ?capacity:int -> unit -> t
(** LRU-capped cache. Default capacity 64; raises [Invalid_argument]
    on a non-positive capacity. *)

val global : unit -> t
(** Process-wide shared cache (capacity 128), built when the module
    initialises, so any domain may call this first. *)

val hash_module : Wmodule.t -> string
(** Hex digest of the module's canonical encoding. *)

val find_or_compile : t -> Wmodule.t -> compile:(unit -> Aot.compiled) -> Aot.compiled
(** Return the cached compilation for [m], or run [compile], cache the
    result and return it.  On overflow the least-recently-used entry is
    evicted first.

    Domain-safe: lookups and commits are mutex-guarded, and a key being
    compiled is marked in-flight so concurrent loads of the same
    content hash wait for the one compilation instead of duplicating it
    (they count as hits).  The lock is released while the compile thunk
    runs, and a failing thunk withdraws the in-flight claim — the next
    waiter becomes the builder, matching sequential retry accounting. *)

val length : t -> int
val hit_count : t -> int
val miss_count : t -> int
val eviction_count : t -> int

(** Global [Sim.Stats] counters: ["wasm.cache.hit"],
    ["wasm.cache.miss"], ["wasm.cache.evict"]. *)
