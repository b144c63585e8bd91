(* Host-time and host-allocation hotspot profiler.

   Sections are *host* accumulators: they measure where the simulator
   itself spends real time (WFD cloning, scheduler pool churn,
   admission hashing, ...) and real allocation, never virtual time.
   Profiling is off by default; a disabled [enter]/[leave] pair is one
   atomic load, a branch and a physical comparison, and allocates
   nothing, so instrumentation can stay in hot paths permanently.

   When enabled, each section additionally records the GC's
   allocated-words deltas across the section body: minor-heap words,
   read with [Gc.minor_words] (exact to the word, and allocation-free),
   and words allocated directly in the major heap (major minus
   promoted, from [Gc.counters]), so minor + major is the section's
   total allocation.  ([Gc.allocated_bytes] reads minor words from
   [Gc.counters], which on OCaml 5.1 leaves out what the current minor
   heap holds.)  [enter] reads the minor count after its own last
   allocation (the [Gc.counters] tuple, the clock reading, the section
   record) and [leave] before its first, so a section's minor words are
   exactly its body's; a parent section also pays for its children's
   boundaries.

   Accumulators are per-domain (a Domain.DLS table registered into a
   global list), so parallel trajectory workers never contend on a
   shared table — and the Gc counters read on a worker domain are that
   domain's own, so the attribution stays coherent under [Par.run].
   [snapshot] merges every domain's table; call it only when the
   instrumented workload is quiescent (e.g. after a bench run), since
   worker domains write their tables without locks. *)

(* All fields are floats (the count too, exact to 2^53), so the record
   is stored flat and updating it boxes nothing. *)
type cell = {
  mutable c_count : float;
  mutable c_ns : float;
  mutable c_minor : float;
  mutable c_major : float;
}

type entry = {
  hs_name : string;
  hs_count : int;
  hs_total_ns : float;
  hs_minor_words : float;
  hs_major_words : float;
}

let entry_words e = e.hs_minor_words +. e.hs_major_words

let enabled_flag = Atomic.make false

let registry : (string, cell) Hashtbl.t list ref = ref []
let registry_mu = Mutex.create ()

let local : (string, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let tbl = Hashtbl.create 32 in
      Mutex.protect registry_mu (fun () -> registry := tbl :: !registry);
      tbl)

let enabled () = Atomic.get enabled_flag
let set_enabled on = Atomic.set enabled_flag on

let now_ns () = Unix.gettimeofday () *. 1e9

let cell_of tbl name =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
      let c = { c_count = 0.0; c_ns = 0.0; c_minor = 0.0; c_major = 0.0 } in
      Hashtbl.add tbl name c;
      c

(* An open section: the cell it charges, and the host clock and GC
   counters at entry in a flat float array ([| ns; minor; promoted;
   major |]), which [enter] fills in place so that its minor reading
   comes after every allocation it makes.  [off] stands for every
   section opened while profiling is disabled, so [enter] allocates
   nothing then and [leave] is one physical comparison. *)
type section = { s_cell : cell; s_start : float array }

let off =
  {
    s_cell = { c_count = 0.0; c_ns = 0.0; c_minor = 0.0; c_major = 0.0 };
    s_start = [| 0.0; 0.0; 0.0; 0.0 |];
  }

let enter name =
  if not (Atomic.get enabled_flag) then off
  else begin
    let cell = cell_of (Domain.DLS.get local) name in
    let _, pro0, maj0 = Gc.counters () in
    let start = [| now_ns (); 0.0; pro0; maj0 |] in
    let s = { s_cell = cell; s_start = start } in
    start.(1) <- Gc.minor_words ();
    s
  end

(* Sections nest: a parent's total includes its children (inclusive
   timing and inclusive allocation), so sibling sections partition
   their parent but the sum over *all* sections can exceed the
   end-to-end wall time or allocation. *)
let leave s =
  if s != off then begin
    let min1 = Gc.minor_words () in
    let t1 = now_ns () in
    let _, pro1, maj1 = Gc.counters () in
    let cell = s.s_cell and start = s.s_start in
    cell.c_count <- cell.c_count +. 1.0;
    cell.c_ns <- cell.c_ns +. (t1 -. start.(0));
    cell.c_minor <- cell.c_minor +. (min1 -. start.(1));
    cell.c_major <- cell.c_major +. (maj1 -. pro1 -. (start.(3) -. start.(2)))
  end

let with_section name f =
  let s = enter name in
  match f () with
  | v ->
      leave s;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      leave s;
      Printexc.raise_with_backtrace e bt

let snapshot () =
  let merged : (string, cell) Hashtbl.t = Hashtbl.create 32 in
  Mutex.protect registry_mu (fun () ->
      List.iter
        (fun tbl ->
          Hashtbl.iter
            (fun name (c : cell) ->
              let m = cell_of merged name in
              m.c_count <- m.c_count +. c.c_count;
              m.c_ns <- m.c_ns +. c.c_ns;
              m.c_minor <- m.c_minor +. c.c_minor;
              m.c_major <- m.c_major +. c.c_major)
            tbl)
        !registry);
  Hashtbl.fold
    (fun name (c : cell) acc ->
      {
        hs_name = name;
        hs_count = int_of_float c.c_count;
        hs_total_ns = c.c_ns;
        hs_minor_words = c.c_minor;
        hs_major_words = c.c_major;
      }
      :: acc)
    merged []
  |> List.sort (fun a b -> String.compare a.hs_name b.hs_name)

let reset () =
  Mutex.protect registry_mu (fun () -> List.iter Hashtbl.reset !registry)
