(* Host-time and host-allocation hotspot profiler.

   Sections are *host* accumulators: they measure where the simulator
   itself spends real time (WFD cloning, scheduler pool churn,
   admission hashing, ...) and real allocation, never virtual time.
   Profiling is off by default; a disabled [enter]/[leave] pair is one
   atomic load, a branch and a physical comparison, and allocates
   nothing, so instrumentation can stay in hot paths permanently.

   When enabled, each section additionally records the GC's
   allocated-words deltas across the section body (one [Gc.counters]
   read per boundary): minor-heap words and words allocated directly
   in the major heap (major minus promoted, so minor + major equals
   total allocation — the same quantity [Gc.allocated_bytes] reports
   in bytes).  The [Gc.counters] call itself allocates a small tuple
   (~10 words), which the enclosing section self-charges; per-section
   words are therefore exact to within tens of words, not exact to the
   word.

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

(* An open section: the cell it charges and the host clock and GC
   counters at entry.  [off] stands for every section opened while
   profiling is disabled, so [enter] allocates nothing then and
   [leave] is one physical comparison. *)
type section = {
  s_cell : cell;
  s_t0 : float;
  s_min0 : float;
  s_pro0 : float;
  s_maj0 : float;
}

let off =
  {
    s_cell = { c_count = 0.0; c_ns = 0.0; c_minor = 0.0; c_major = 0.0 };
    s_t0 = 0.0;
    s_min0 = 0.0;
    s_pro0 = 0.0;
    s_maj0 = 0.0;
  }

let enter name =
  if not (Atomic.get enabled_flag) then off
  else begin
    let cell = cell_of (Domain.DLS.get local) name in
    let min0, pro0, maj0 = Gc.counters () in
    { s_cell = cell; s_t0 = now_ns (); s_min0 = min0; s_pro0 = pro0; s_maj0 = maj0 }
  end

(* Sections nest: a parent's total includes its children (inclusive
   timing and inclusive allocation), so sibling sections partition
   their parent but the sum over *all* sections can exceed the
   end-to-end wall time or allocation. *)
let leave s =
  if s != off then begin
    let t1 = now_ns () in
    let min1, pro1, maj1 = Gc.counters () in
    let cell = s.s_cell in
    cell.c_count <- cell.c_count +. 1.0;
    cell.c_ns <- cell.c_ns +. (t1 -. s.s_t0);
    cell.c_minor <- cell.c_minor +. (min1 -. s.s_min0);
    cell.c_major <- cell.c_major +. (maj1 -. pro1 -. (s.s_maj0 -. s.s_pro0))
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
