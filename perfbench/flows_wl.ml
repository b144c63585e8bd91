(* The workflows workload: a closed loop, one invocation at a time, of
   the paper's data-plane apps on [As_platform.alloystack] (Rust, FAT
   image, on-demand loading and AsBuffer reference passing):

   - WordCount over 10 MiB of text, 3 mappers and 3 reducers;
   - ParallelSorting over 10 MiB of records, 3 sorters;
   - FunctionChain of 10 functions passing 16 MiB;
   - online-compiling, a Wasm module decoded, AOT-compiled and run
     with n ~ 2e6.

   Each size carries a seeded jitter of under 1/64, so the modelled
   times depend on the seed as the inputs do.  [Visor.Server], [Eventq]
   and [Sched] do almost nothing here. *)

open Sim
open Workloads

let tags = [| "wc"; "ps"; "fc"; "oc" |]

type spec = {
  app : Fctx.app;
  output : bytes option ref;  (** What the last [validate] read back. *)
}

let mib = 1024 * 1024

let sizes ~seed ~scale =
  let rng = Rng.create seed in
  let jitter base =
    let base = Stdlib.max 64 (int_of_float (float_of_int base *. scale)) in
    base + Rng.int rng (base / 64)
  in
  let wc = jitter (10 * mib) in
  let ps = jitter (10 * mib) in
  let fc = jitter (16 * mib) in
  let oc = jitter 2_000_000 in
  (wc, ps, fc, oc)

(* The kernel with each transport call followed by a [Yardstick] tick,
   so a metered batch is cut into chunks inside long kernels too. *)
let ticking (kernel : Fctx.kernel) : Fctx.kernel =
 fun ctx ->
  let after f =
    let v = f () in
    Yardstick.tick ();
    v
  in
  kernel
    {
      ctx with
      Fctx.read_input = (fun path -> after (fun () -> ctx.read_input path));
      write_output = (fun path data -> after (fun () -> ctx.write_output path data));
      send = (fun ~slot data -> after (fun () -> ctx.send ~slot data));
      recv = (fun ~slot -> after (fun () -> ctx.recv ~slot));
      phase =
        (fun name f ->
          ctx.phase name f;
          Yardstick.tick ());
    }

let map_kernels f (app : Fctx.app) =
  { app with Fctx.stages = List.map (fun (n, k, kernel) -> (n, k, f kernel)) app.Fctx.stages }

(* Keep the bytes [validate] reads, to fingerprint them after the timed
   span. *)
let capturing (app : Fctx.app) =
  let output = ref None in
  let validate ~read_output =
    app.Fctx.validate ~read_output:(fun path ->
        let r = read_output path in
        output := r;
        r)
  in
  { app = map_kernels ticking { app with Fctx.validate }; output }

let make ~seed ~scale =
  let wc, ps, fc, oc = sizes ~seed ~scale in
  Array.map
    (fun app ->
      let s = capturing (app ()) in
      Yardstick.tick ();
      s)
    [|
      (fun () -> Wordcount.app ~seed ~size:wc ~instances:3);
      (fun () -> Parallel_sorting.app ~seed:(seed + 1) ~size:ps ~instances:3);
      (fun () -> Function_chain.app ~seed:(seed + 2) ~payload:fc ~length:10);
      (fun () -> Compile_app.app ~n:oc ~seed ());
    |]

let kernel_section tag = "perfbench.kernel." ^ tag
let io_section tag = "perfbench.io." ^ tag

(* The kernel under a [Hotspot] section the benchmark names, with each
   transport call inside it also under the app's I/O section, so kernel
   self time is "perfbench.kernel.<tag>" minus "perfbench.io.<tag>".
   File calls get a section of their own; AsBuffer calls already open
   the program's "asbuffer.put"/"asbuffer.get".  Bytes are counted
   into [Layers]. *)
let traced_kernel tag (kernel : Fctx.kernel) : Fctx.kernel =
  let section = kernel_section tag and io = io_section tag in
  let in_io f = Hotspot.with_section io f in
  fun ctx ->
    Hotspot.with_section section (fun () ->
        kernel
          {
            ctx with
            Fctx.read_input =
              (fun path ->
                let data =
                  in_io (fun () -> Hotspot.with_section "perfbench.fs.read" (fun () -> ctx.read_input path))
                in
                Layers.count Layers.read_bytes (Bytes.length data);
                data);
            write_output =
              (fun path data ->
                Layers.count Layers.write_bytes (Bytes.length data);
                in_io (fun () -> Hotspot.with_section "perfbench.fs.write" (fun () -> ctx.write_output path data)));
            send =
              (fun ~slot data ->
                Layers.count Layers.put_bytes (Bytes.length data);
                in_io (fun () -> ctx.send ~slot data));
            recv =
              (fun ~slot ->
                let data = in_io (fun () -> ctx.recv ~slot) in
                Layers.count Layers.get_bytes (Bytes.length data);
                data);
          })

let traced specs = Array.mapi (fun i s -> { s with app = map_kernels (traced_kernel tags.(i)) s.app }) specs

type setup = { specs : spec array; setup_s : float; stage_s : float }

let now = Unix.gettimeofday

(* Input generation plus staging the inputs on a fresh FAT image, the
   way [As_platform] stages them for every run.  It starts from a
   compacted heap.  Metered, [setup_s] is at the reference speed. *)
let setup ~meter ~seed ~scale =
  Gc.compact ();
  let (specs, stage_s), cost =
    Timed.run ~meter (fun () ->
        let specs = make ~seed ~scale in
        let t0 = now () in
        let vfs = Fsim.Vfs.fresh_fat () in
        Array.iter
          (fun s ->
            List.iter
              (fun (path, data) ->
                vfs.Fsim.Vfs.write_file path data;
                Yardstick.tick ())
              s.app.Fctx.inputs)
          specs;
        (specs, now () -. t0))
  in
  { specs; setup_s = cost.Timed.scaled_s; stage_s }

type rep = {
  cost : Timed.t;  (** Of the whole batch. *)
  run_ns : float array;  (** Host time of each [run] call. *)
  failed : int;  (** Failed [validate]s and raised exceptions. *)
  e2e_ms : float array;  (** Modelled end-to-end time of each app. *)
  fingerprint : string;
}

let run_batch ~meter specs =
  let n = Array.length specs in
  let results = Array.make n None in
  let run_ns = Array.make n 0.0 in
  let (), cost =
    Timed.run ~meter (fun () ->
        Array.iteri
          (fun i s ->
            s.output := None;
            let t = now () in
            (results.(i) <-
               match Baselines.As_platform.alloystack.Baselines.Platform.run s.app with
               | m -> Some m
               | exception _ -> None);
            run_ns.(i) <- (now () -. t) *. 1e9;
            Yardstick.tick ())
          specs)
  in
  let failed = ref 0 in
  let parts =
    Array.to_list
      (Array.mapi
         (fun i s ->
           match results.(i) with
           | None ->
               incr failed;
               tags.(i) ^ ":raised"
           | Some (m : Baselines.Platform.metrics) ->
               let verdict =
                 match m.Baselines.Platform.validated with
                 | Ok () -> "ok"
                 | Error e ->
                     incr failed;
                     e
               in
               let ns t = Int64.to_string (Units.to_ns t) in
               String.concat ","
                 [
                   tags.(i);
                   ns m.e2e;
                   ns m.cold_start;
                   ns m.cpu_time;
                   string_of_int m.peak_rss;
                   verdict;
                   (match !(s.output) with Some d -> Digest.to_hex (Digest.bytes d) | None -> "-");
                 ])
         specs)
  in
  {
    cost;
    run_ns;
    failed = !failed;
    e2e_ms =
      Array.map
        (function Some (m : Baselines.Platform.metrics) -> Units.to_ms m.e2e | None -> 0.0)
        results;
    fingerprint = Digest.to_hex (Digest.string (String.concat ";" parts));
  }
