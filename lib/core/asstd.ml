open Sim

type ctx = {
  wfd : Wfd.t;
  thread : Wfd.thread;
  language : Workflow.language;
  buffer_bw : float;
  compute_factor : float;
  mutable phases : (string, Units.time) Hashtbl.t option;
}

let make_ctx wfd thread language =
  let buffer_bw =
    match language with
    | Workflow.Rust -> Cost.buffer_copy_bw_rust
    | Workflow.C -> Cost.buffer_copy_bw_c
    | Workflow.Python -> Cost.buffer_copy_bw_python
  in
  {
    wfd;
    thread;
    language;
    buffer_bw;
    compute_factor = 1.0;
    phases = None;
  }

let load_wasm ctx profile m =
  Wasm.Runtime.load ~cache:(Wasm.Compile_cache.global ()) ?fault:ctx.wfd.Wfd.fault
    profile ~clock:ctx.thread.Wfd.clock m

(* CPython interpretation costs ~22x native on this class of workloads;
   compiled C through WASM costs the runtime's slowdown alone. *)
let python_interp_factor = 22.0

let with_runtime ctx profile =
  let slowdown = Wasm.Runtime.slowdown_vs_native profile in
  let compute_factor =
    match ctx.language with
    | Workflow.Rust -> 1.0
    | Workflow.C -> slowdown
    | Workflow.Python -> python_interp_factor *. slowdown
  in
  { ctx with compute_factor }

(* Run [f] under a fresh span on the calling thread's clock.  The span
   becomes the WFD's current trace context (so loader / buffer spans
   opened inside nest under it) and the ambient parent (so the TCP
   stack, which cannot see the WFD, attaches its bursts here too).
   One branch when tracing is off. *)
let with_span ctx ~category ~label f =
  let g = (Span.current ()) in
  if not (Span.enabled g) then f ()
  else begin
    let clock = ctx.thread.Wfd.clock in
    let wfd = ctx.wfd in
    let sp =
      Span.begin_span g ~parent:wfd.Wfd.span ~at:(Clock.now clock) ~category ~label ()
    in
    let saved = wfd.Wfd.span in
    let saved_amb = Span.ambient g in
    wfd.Wfd.span <- sp;
    Span.set_ambient g sp;
    Fun.protect
      ~finally:(fun () ->
        wfd.Wfd.span <- saved;
        Span.set_ambient g saved_amb;
        Span.end_span g sp ~at:(Clock.now clock))
      f
  end

(* Socket entries spend their time in the network substrate; everything
   else through as-std is I/O against the libos. *)
let entry_category entry =
  if String.length entry >= 5 && String.equal (String.sub entry 0 5) "smol_" then "network"
  else "io"

(* Entry miss -> the on-demand loading interface of as-visor (§4);
   this happens before the trampoline since the check lives in the
   user-linked as-std stub, but the load itself runs in the system
   partition.  Model both on the calling thread's clock. *)
let sys_call ctx entry f =
  let clock = ctx.thread.Wfd.clock in
  (match Libos.ensure_entry ctx.wfd ~clock entry with `Fast | `Slow -> ());
  Trampoline.enter ctx.wfd ctx.thread;
  match f ~clock with
  | result ->
      Trampoline.leave ctx.thread;
      result
  | exception e ->
      Trampoline.leave ctx.thread;
      raise e

(* The span (and its category) only when spans are on: the untraced
   call allocates nothing of its own. *)
let sys ctx entry f =
  if Span.enabled (Span.current ()) then
    with_span ctx ~category:(entry_category entry) ~label:entry (fun () ->
        sys_call ctx entry f)
  else sys_call ctx entry f

let lift = function Ok v -> v | Error e -> raise (Errno.Error (e, ""))

let open_file ctx ?(create = false) path =
  sys ctx "open" (fun ~clock -> lift (Libos_fdtab.openf ctx.wfd ~clock ~path ~create))

let read_fd ctx ~fd ~len =
  sys ctx "read" (fun ~clock -> lift (Libos_fdtab.read ctx.wfd ~clock ~fd ~len))

let write_fd ctx ~fd data =
  sys ctx "write" (fun ~clock -> lift (Libos_fdtab.write ctx.wfd ~clock ~fd data))

let close_fd ctx ~fd =
  sys ctx "close" (fun ~clock -> lift (Libos_fdtab.close ctx.wfd ~clock ~fd))

let read_whole_file ctx path =
  sys ctx "fatfs_read" (fun ~clock -> lift (Libos_fatfs.fatfs_read ctx.wfd ~clock path))

let write_whole_file ctx path data =
  sys ctx "fatfs_write" (fun ~clock ->
      ignore (lift (Libos_fatfs.fatfs_write ctx.wfd ~clock path data)))

let file_exists ctx path =
  sys ctx "fatfs_read" (fun ~clock ->
      ignore clock;
      Libos_fatfs.fatfs_exists ctx.wfd path)

let println ctx line =
  let data = Bytes.of_string (line ^ "\n") in
  sys ctx "host_stdout" (fun ~clock ->
      ignore (Libos_stdio.host_stdout ctx.wfd ~clock data))

let now_ns ctx =
  sys ctx "gettimeofday" (fun ~clock -> Libos_time.gettimeofday ctx.wfd ~clock)

let tcp_connect ctx ~ip ~port =
  sys ctx "smol_connect" (fun ~clock ->
      lift (Libos_socket.smol_connect ctx.wfd ~clock ~ip ~port))

let tcp_connect_fd ctx ~ip ~port =
  let conn = tcp_connect ctx ~ip ~port in
  sys ctx "open" (fun ~clock ->
      Libos_fdtab.register_socket ctx.wfd ~clock ~conn ~at_client:true)

let compute ctx native =
  let clock = ctx.thread.Wfd.clock in
  if Span.enabled (Span.current ()) then begin
    let sp =
      Span.begin_span (Span.current ()) ~parent:ctx.wfd.Wfd.span ~at:(Clock.now clock)
        ~category:"compute" ~label:"compute" ()
    in
    Clock.advance clock (Units.scale native ctx.compute_factor);
    Span.end_span (Span.current ()) sp ~at:(Clock.now clock)
  end
  else Clock.advance clock (Units.scale native ctx.compute_factor)

let compute_bytes ctx ~per_byte_ns n =
  compute ctx (Units.ns_f (per_byte_ns *. float_of_int n))

(* Most kernels never name a phase, so the table is created by the
   first [in_phase]. *)
let phase_table ctx =
  match ctx.phases with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      ctx.phases <- Some tbl;
      tbl

let in_phase ctx name f =
  let start = Clock.now ctx.thread.Wfd.clock in
  let finish () =
    let spent = Clock.elapsed_since ctx.thread.Wfd.clock start in
    let phases = phase_table ctx in
    let prev =
      match Hashtbl.find_opt phases name with Some t -> t | None -> Units.zero
    in
    Hashtbl.replace phases name (Units.add prev spent)
  in
  match f () with
  | result ->
      finish ();
      result
  | exception e ->
      finish ();
      raise e

let phase_time ctx name =
  match ctx.phases with
  | Some phases -> (
      match Hashtbl.find_opt phases name with Some t -> t | None -> Units.zero)
  | None -> Units.zero
