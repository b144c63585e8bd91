type trigger =
  | Always
  | Probability of float
  | Nth of int
  | First of int
  | Every of int

exception Injected of { site : string }

type site_state = {
  mutable trigger : trigger;
  mutable max_fires : int option;
  rng : Rng.t;
  mutable occurrences : int;
  mutable fired : int;
}

type t = {
  plan_seed : int;
  trace : Trace.t option;
      (** [None] routes fault records to [Trace.current ()] at record
          time, so a plan shared with parallel tasks traces into each
          task's shard rather than across domains into one buffer. *)
  table : (string, site_state) Hashtbl.t;
}

let site_link_tx = "net.link.tx"
let site_link_delay = "net.link.delay"
let site_link_corrupt = "net.link.corrupt"
let site_vfs_read = "vfs.read"
let site_vfs_write = "vfs.write"
let site_mem_alloc = "mem.alloc"
let site_loader_load = "loader.load"
let site_fn_crash = "visor.fn.crash"
let site_fn_hang = "visor.fn.hang"

let create ?trace ~seed () = { plan_seed = seed; trace; table = Hashtbl.create 8 }

let seed t = t.plan_seed

let trace_of t = match t.trace with Some tr -> tr | None -> Trace.current ()

(* FNV-1a over the site name, independent of Hashtbl.hash so the
   per-site stream survives compiler upgrades. *)
let site_hash site =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF) site;
  !h

let site_seed t site = t.plan_seed lxor (site_hash site * 0x9E3779B1)
let site_rng t site = Rng.create (site_seed t site)

let validate site = function
  | Always -> ()
  | Probability p ->
      if p < 0.0 || p > 1.0 then
        invalid_arg (Printf.sprintf "Fault.inject %s: probability %g not in [0, 1]" site p)
  | Nth n | First n | Every n ->
      if n <= 0 then
        invalid_arg (Printf.sprintf "Fault.inject %s: count must be positive" site)

let inject t ~site ?max_fires trigger =
  validate site trigger;
  (match max_fires with
  | Some m when m <= 0 -> invalid_arg "Fault.inject: max_fires must be positive"
  | _ -> ());
  Hashtbl.replace t.table site
    { trigger; max_fires; rng = site_rng t site; occurrences = 0; fired = 0 }

let check ?(at = Units.zero) t ~site =
  match Hashtbl.find_opt t.table site with
  | None -> false
  | Some st ->
      st.occurrences <- st.occurrences + 1;
      (* Draw before the cap check so the stream stays aligned with the
         occurrence count whatever max_fires is. *)
      let scheduled =
        match st.trigger with
        | Always -> true
        | Probability p -> Rng.float st.rng 1.0 < p
        | Nth n -> st.occurrences = n
        | First n -> st.occurrences <= n
        | Every n -> st.occurrences mod n = 0
      in
      let capped =
        match st.max_fires with Some m -> st.fired >= m | None -> false
      in
      let fires = scheduled && not capped in
      if fires then begin
        st.fired <- st.fired + 1;
        Trace.recordf (trace_of t) ~at ~category:"fault" ~label:site
          "injected #%d (occurrence %d)" st.fired st.occurrences
      end;
      fires

let fire_exn ?at t ~site = if check ?at t ~site then raise (Injected { site })

let occurrences t ~site =
  match Hashtbl.find_opt t.table site with Some st -> st.occurrences | None -> 0

let fired t ~site =
  match Hashtbl.find_opt t.table site with Some st -> st.fired | None -> 0

let total_fired t = Hashtbl.fold (fun _ st acc -> acc + st.fired) t.table 0

let sites t =
  Hashtbl.fold (fun site _ acc -> site :: acc) t.table [] |> List.sort compare

let schedule t =
  Hashtbl.fold (fun site st acc -> (site, st.fired) :: acc) t.table []
  |> List.sort compare

let record_recovery t ~at ~site detail =
  Trace.recordf (trace_of t) ~at ~category:"fault" ~label:site "recovered: %s" detail

(* Split a per-task plan off [t].  The child's seed is derived from
   (plan seed, task index) alone — never from host scheduling — so the
   same task draws the same fault stream whatever the interleaving.
   Site states are re-derived from the child's seed with fresh
   counters. *)
let derive_child_seed t ~index =
  Int64.to_int
    (Rng.mix
       (Int64.add (Int64.of_int t.plan_seed)
          (Int64.mul Rng.golden_gamma (Int64.of_int (index + 1)))))

let child t ~index =
  let c = { plan_seed = derive_child_seed t ~index; trace = None; table = Hashtbl.create 8 } in
  Hashtbl.iter
    (fun site (st : site_state) ->
      Hashtbl.replace c.table site
        {
          trigger = st.trigger;
          max_fires = st.max_fires;
          rng = site_rng c site;
          occurrences = 0;
          fired = 0;
        })
    t.table;
  c

(* Fold a finished child's occurrence/fire counts back into the parent
   so plan-level accounting ([fired], [schedule], ...) covers the whole
   run.  Sums are order-insensitive; call at a deterministic join
   anyway so traces stay aligned. *)
let absorb t c =
  Hashtbl.fold (fun site st acc -> (site, st) :: acc) c.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (site, (cst : site_state)) ->
         match Hashtbl.find_opt t.table site with
         | Some st ->
             st.occurrences <- st.occurrences + cst.occurrences;
             st.fired <- st.fired + cst.fired
         | None ->
             (* Copy, never alias: [c] stays usable after this. *)
             Hashtbl.replace t.table site
               {
                 trigger = cst.trigger;
                 max_fires = cst.max_fires;
                 rng = Rng.copy cst.rng;
                 occurrences = cst.occurrences;
                 fired = cst.fired;
               })

let reset t =
  let fresh =
    Hashtbl.fold
      (fun site st acc ->
        (site, { st with rng = site_rng t site; occurrences = 0; fired = 0 }) :: acc)
      t.table []
  in
  Hashtbl.reset t.table;
  List.iter (fun (site, st) -> Hashtbl.replace t.table site st) fresh
