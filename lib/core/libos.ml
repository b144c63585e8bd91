open Sim

type mod_def = {
  mod_name : string;
  entries : string list;
  deps : string list;
  init : Wfd.t -> clock:Sim.Clock.t -> unit;
}

let registry =
  [
    {
      mod_name = "mm";
      entries = [ "mmap"; "alloc_buffer"; "acquire_buffer" ];
      deps = [];
      init = Libos_mm.init;
    };
    {
      mod_name = "fdtab";
      entries = [ "open"; "read"; "write"; "close" ];
      (* fd-backed files live in the FAT image; stdio backs /dev/stdout. *)
      deps = [ "fatfs"; "stdio" ];
      init = Libos_fdtab.init;
    };
    {
      mod_name = "fatfs";
      entries = [ "fatfs_open"; "fatfs_read"; "fatfs_write"; "fatfs_delete" ];
      deps = [];
      init = Libos_fatfs.init;
    };
    {
      mod_name = "socket";
      entries = [ "smol_bind"; "smol_connect"; "smol_accept"; "smol_send"; "smol_recv" ];
      deps = [];
      init = Libos_socket.init;
    };
    {
      mod_name = "stdio";
      entries = [ "host_stdout" ];
      deps = [];
      init = Libos_stdio.init;
    };
    {
      mod_name = "time";
      entries = [ "gettimeofday" ];
      deps = [];
      init = Libos_time.init;
    };
    {
      mod_name = "mmap_file_backend";
      entries = [ "register_file_backend" ];
      deps = [ "fatfs"; "mm" ];
      init = Libos_mmap_backend.init;
    };
  ]

let find_module name =
  match List.find_opt (fun m -> String.equal m.mod_name name) registry with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Libos.find_module: unknown module %s" name)

let module_names = List.map (fun m -> m.mod_name) registry

let providing entry =
  match List.find_opt (fun m -> List.mem entry m.entries) registry with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Libos.providing: no module provides %s" entry)

let load_histo = Metrics.histogram "loader.module_load_ns"

let rec load_module (wfd : Wfd.t) ~clock name =
  if not (Wfd.is_loaded wfd name) then begin
    let m = find_module name in
    let t0 = Clock.now clock in
    (* The slow path of the on-demand loading interface: this span
       covers the transitive dependency loads too, so entry-miss time
       attributes to load-slow whichever module actually pulled it in.
       Its label is built only when spans are on. *)
    let g = Span.current () in
    let sp =
      if Span.enabled g then
        Span.begin_span g ~parent:wfd.Wfd.span ~at:t0 ~category:"load-slow"
          ~label:("load " ^ name) ()
      else Span.none
    in
    let saved = wfd.Wfd.span in
    if sp <> Span.none then wfd.Wfd.span <- sp;
    Fun.protect
      ~finally:(fun () ->
        wfd.Wfd.span <- saved;
        Span.end_span (Span.current ()) sp ~at:(Clock.now clock);
        Metrics.observe_time load_histo (Units.sub (Clock.now clock) t0))
      (fun () ->
        List.iter (load_module wfd ~clock) m.deps;
        (* dlmopen the module into the WFD's namespace, then run its
           constructor. *)
        Clock.advance clock Cost.dlmopen_namespace;
        (* A fired loader fault models a transient dlmopen failure: the
           namespace load is discarded and as-visor falls back to repeating
           the slow path for this module. *)
        (match wfd.Wfd.fault with
        | Some plan when Fault.check ~at:(Clock.now clock) plan ~site:Fault.site_loader_load
          ->
            let rsp =
              Span.begin_span (Span.current ()) ~parent:sp ~at:(Clock.now clock)
                ~category:"retry" ~label:("reload " ^ name) ()
            in
            Clock.advance clock Cost.dlmopen_namespace;
            Fault.record_recovery plan ~at:(Clock.now clock) ~site:Fault.site_loader_load
              ("slow-path reload of module " ^ name);
            Span.end_span (Span.current ()) rsp ~at:(Clock.now clock)
        | _ -> ());
        Clock.advance clock (Cost.module_load name);
        m.init wfd ~clock;
        Hashtbl.replace wfd.Wfd.loaded_modules name ();
        List.iter (fun e -> Hashtbl.replace wfd.Wfd.entry_table e name) m.entries;
        let tr = Trace.current () in
        if Trace.enabled tr then
          Trace.recordf tr ~at:(Clock.now clock) ~category:"loader" ~label:"module-loaded"
            "wfd%d %s" wfd.Wfd.id name)
  end

let ensure_entry (wfd : Wfd.t) ~clock entry =
  if Hashtbl.mem wfd.Wfd.entry_table entry then begin
    wfd.Wfd.entry_hits <- wfd.Wfd.entry_hits + 1;
    if Span.enabled (Span.current ()) then
      Span.instant (Span.current ()) ~parent:wfd.Wfd.span ~at:(Clock.now clock)
        ~category:"load-fast" ~label:entry ();
    `Fast
  end
  else begin
    wfd.Wfd.entry_misses <- wfd.Wfd.entry_misses + 1;
    let tr = Trace.current () in
    if Trace.enabled tr then
      Trace.recordf tr ~at:(Clock.now clock) ~category:"loader" ~label:"entry-miss"
        "wfd%d %s" wfd.Wfd.id entry;
    let m = providing entry in
    load_module wfd ~clock m.mod_name;
    `Slow
  end

let attach_warm (wfd : Wfd.t) ~clock =
  (* A cloned WFD inherits the template's linked namespaces and entry
     table; only the per-WFD module state (fd tables, slot maps, mount
     cursors) must be rebuilt.  The modules' full init cost was paid
     once on the template — the clone charges the small CoW-attach cost
     per module and runs init against a scratch clock.  The span and
     the trace lines are built only when their collectors are on. *)
  let g = Span.current () in
  let sp =
    if Span.enabled g then
      Span.begin_span g ~parent:wfd.Wfd.span ~at:(Clock.now clock) ~category:"load-fast"
        ~label:"attach-warm" ()
    else Span.none
  in
  let scratch = Clock.create ~at:(Clock.now clock) () in
  List.iter
    (fun m ->
      if Wfd.is_loaded wfd m.mod_name then begin
        Clock.advance clock Cost.warm_module_attach;
        m.init wfd ~clock:scratch;
        let tr = Trace.current () in
        if Trace.enabled tr then
          Trace.recordf tr ~at:(Clock.now clock) ~category:"loader" ~label:"module-attached"
            "wfd%d %s (warm)" wfd.Wfd.id m.mod_name
      end)
    registry;
  Span.end_span (Span.current ()) sp ~at:(Clock.now clock)

let load_all (wfd : Wfd.t) ~clock =
  List.iter (fun m -> load_module wfd ~clock m.mod_name) registry;
  Clock.advance clock Cost.load_all_binding

let load_all_cost =
  List.fold_left
    (fun acc m ->
      Units.add acc (Units.add Cost.dlmopen_namespace (Cost.module_load m.mod_name)))
    Cost.load_all_binding registry
