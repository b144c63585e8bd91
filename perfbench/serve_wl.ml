(* The serving workloads: the three-tenant mix of the repository's
   serving bench, driven open-loop through [Visor.Server.serve_fold].

   - [thumb]: a 2-stage Rust chain handing a 32 KiB intermediate to the
     next stage through AsBuffer reference passing;
   - [etl]: an 8-way Rust fan-out;
   - [mlinf]: a Python endpoint (the one a warm CPython template helps
     most).

   serve-warm runs them on a warm pool with WFD recycling below the
   saturation knee; serve-cold runs the same tenants with the pool off,
   so every request boots a WFD.  The request schedule is generated from
   the seed during set-up; the server sees only the generated
   requests. *)

open Sim
open Alloystack_core

type mode = Warm | Cold

(* serve-cold runs at 65 qps, where the slowest requests queue: at 50
   qps every percentile from p75 to p99 is the unqueued Python cold boot
   (2178.61695 ms) whatever the seed, so its p99 would measure
   nothing. *)
let qps = function Warm -> 300.0 | Cold -> 65.0
let full_count = function Warm -> 50_000 | Cold -> 20_000

(* Observability is sampled 1-in-64, as on the repository's scale legs. *)
let sample_every = 64

let node ?(instances = 1) ?(language = Workflow.Rust) ?(modules = []) id =
  { Workflow.node_id = id; language; instances; required_modules = modules }

(* Small admitted images, one per function, each salted with its name so
   the content-hash admission cache scans each once and hits after. *)
let image name =
  let salt = Hashtbl.hash name in
  Isa.Image.create ~name ~toolchain:Isa.Image.Rust_as_std
    (Isa.Inst.Mov_imm (Int32.of_int (salt land 0xffff))
    :: List.init 160 (fun i ->
           if i mod 5 = 0 then Isa.Inst.Mov_imm (Int32.of_int i) else Isa.Inst.Add))

let thumb_payload = Bytes.make (32 * 1024) 'd'

(* The program's own "asbuffer.put"/"asbuffer.get" sections time the
   thumb handoff; the traced run counts its bytes here. *)
let produce_kernel slot ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
  Asstd.compute ctx (Units.ms ms);
  ignore (Asbuffer.with_slot_raw ctx ~slot thumb_payload);
  Layers.count Layers.put_bytes (Bytes.length thumb_payload)

let consume_kernel slot ms (ctx : Asstd.ctx) ~instance:_ ~total:_ =
  Layers.count Layers.get_bytes (Asbuffer.consume_slot_raw ctx ~slot);
  Asstd.compute ctx (Units.ms ms)

let compute_kernel ms (ctx : Asstd.ctx) ~instance:_ ~total:_ = Asstd.compute ctx (Units.ms ms)

let endpoints =
  [
    ( "thumb",
      Workflow.create_exn ~name:"thumb"
        ~nodes:[ node ~modules:[ "fdtab" ] "extract"; node "render" ]
        ~edges:[ ("extract", "render") ],
      [
        ("extract", Visor.bind ~image:(image "extract") (produce_kernel "thumb" 6));
        ("render", Visor.bind ~image:(image "render") (consume_kernel "thumb" 8));
      ] );
    ( "etl",
      Workflow.create_exn ~name:"etl" ~nodes:[ node ~instances:8 ~modules:[ "mm" ] "shard" ] ~edges:[],
      [ ("shard", Visor.bind ~image:(image "shard") (compute_kernel 12)) ] );
    ( "mlinf",
      Workflow.create_exn ~name:"mlinf" ~nodes:[ node ~language:Workflow.Python "infer" ] ~edges:[],
      [ ("infer", Visor.bind ~image:(image "infer") (compute_kernel 10)) ] );
  ]

let names = Array.of_list (List.map (fun (e, _, _) -> e) endpoints)

let endpoint_index e =
  let rec go i = if String.equal names.(i) e then i else go (i + 1) in
  go 0

type rep = {
  setup_s : float;  (** Server creation, registration, schedule generation. *)
  loadgen_s : float;  (** The schedule generation part of [setup_s]. *)
  cost : Timed.t;  (** Of the [serve_fold] call. *)
  requests : int;
  failed : int;  (** Not-ok responses plus requests never answered. *)
  summary : Visor.Server.summary;
  fingerprint : string;  (** MD5 of every response tuple and the summary. *)
}

let now = Unix.gettimeofday

(* Per-response fields, in the order [bench serving] fingerprints them. *)
let fields = 7

let digest_of (r : int array) n (s : Visor.Server.summary) =
  let b = Buffer.create ((n * fields * 8) + 256) in
  for i = 0 to (n * fields) - 1 do
    Buffer.add_int64_le b (Int64.of_int r.(i))
  done;
  let ns t = Int64.to_string (Units.to_ns t) in
  Buffer.add_string b
    (String.concat ","
       [
         string_of_int s.Visor.Server.sm_completed;
         string_of_int s.sm_failed;
         ns s.sm_duration;
         ns s.sm_mean_latency;
         ns s.sm_p50_latency;
         ns s.sm_p99_latency;
         string_of_int s.sm_max_inflight;
         string_of_int s.sm_warm_starts;
         string_of_int s.sm_cold_starts;
         string_of_int s.sm_adm_hits;
         string_of_int s.sm_adm_scans;
         string_of_int s.sm_evictions;
       ]);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One repetition: a fresh server, the seeded schedule, one serve.  A
   metered repetition states set-up and serve times at the reference
   speed. *)
let run_rep ~meter ~mode ~seed ~count =
  let (server, schedule, loadgen_s), setup =
    Timed.run ~meter (fun () ->
        let server =
          Visor.Server.create ~warm:(mode = Warm) ~sample_every ~sample_seed:seed
            ~sketch_latency:true ()
        in
        List.iter
          (fun (endpoint, workflow, bindings) ->
            Visor.Server.register server ~endpoint ~workflow ~bindings ())
          endpoints;
        let t0 = now () in
        let next = Baselines.Loadgen.request_stream ~seed ~qps:(qps mode) ~endpoints:names ~count () in
        let schedule =
          Array.init count (fun _ ->
              match next () with
              | Some (endpoint, arrival) -> { Visor.Server.endpoint; arrival }
              | None -> failwith "perfbench: request stream ended early")
        in
        (server, schedule, now () -. t0))
  in
  let recorded = Array.make (count * fields) 0 in
  Metrics.set_raw_sample_every ~seed sample_every;
  let cursor = ref 0 in
  let pull () =
    let i = !cursor in
    if i >= count then None
    else begin
      cursor := i + 1;
      Some schedule.(i)
    end
  in
  let answered = ref 0 and bad = ref 0 in
  let record () (p : Visor.Server.response) =
    let o = !answered * fields in
    recorded.(o) <- endpoint_index p.Visor.Server.r_endpoint;
    recorded.(o + 1) <- Int64.to_int (Units.to_ns p.r_arrival);
    recorded.(o + 2) <- Int64.to_int (Units.to_ns p.r_finish);
    recorded.(o + 3) <- Bool.to_int p.r_warm;
    recorded.(o + 4) <- Bool.to_int p.r_ok;
    recorded.(o + 5) <- p.r_attempts;
    recorded.(o + 6) <- p.r_retries;
    incr answered;
    if not p.r_ok then incr bad;
    if !answered land 127 = 0 then Yardstick.tick ()
  in
  let ((), summary), cost =
    Timed.run ~meter (fun () -> Visor.Server.serve_fold server pull ~init:() ~f:record)
  in
  Visor.Server.shutdown server;
  Metrics.set_raw_sample_every 1;
  {
    setup_s = setup.Timed.scaled_s;
    loadgen_s;
    cost;
    requests = count;
    failed = !bad + (count - !answered);
    summary;
    fingerprint = digest_of recorded !answered summary;
  }
