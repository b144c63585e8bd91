open Sim

type descriptor =
  | File of { path : string; mutable pos : int }
  | Stdout
  | Socket of { conn : Netsim.Tcp.t; at_client : bool }

type state = { fds : (int, descriptor) Hashtbl.t; mutable next_fd : int }

let key : state Ext.key = Ext.new_key "libos.fdtab"

let init (wfd : Wfd.t) ~clock =
  ignore clock;
  Ext.set wfd.Wfd.ext key { fds = Hashtbl.create 16; next_fd = 3 }

let state wfd = Ext.get_exn wfd.Wfd.ext key

let openf (wfd : Wfd.t) ~clock ~path ~create =
  let st = state wfd in
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Open);
  let register d =
    let fd = st.next_fd in
    st.next_fd <- fd + 1;
    Hashtbl.replace st.fds fd d;
    Ok fd
  in
  if String.equal path "/dev/stdout" then register Stdout
  else if Libos_fatfs.fatfs_exists wfd path then register (File { path; pos = 0 })
  else if create then begin
    match Libos_fatfs.fatfs_write wfd ~clock path Bytes.empty with
    | Ok _ -> register (File { path; pos = 0 })
    | Error e -> Error e
  end
  else Error Errno.Enoent

let register_socket (wfd : Wfd.t) ~clock ~conn ~at_client =
  let st = state wfd in
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Socket);
  let fd = st.next_fd in
  st.next_fd <- fd + 1;
  Hashtbl.replace st.fds fd (Socket { conn; at_client });
  fd

let find st fd =
  match Hashtbl.find_opt st.fds fd with
  | Some d -> Ok d
  | None -> Error Errno.Ebadf

let read (wfd : Wfd.t) ~clock ~fd ~len =
  let st = state wfd in
  match find st fd with
  | Error _ as e -> e
  | Ok Stdout -> Error Errno.Einval
  | Ok (Socket { conn; at_client }) ->
      Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Recvfrom);
      Ok (Netsim.Tcp.recv conn ~at_client len)
  | Ok (File f) -> begin
      match Libos_fatfs.fatfs_read wfd ~clock f.path with
      | Error _ as e -> e
      | Ok data ->
          let avail = Stdlib.max 0 (Bytes.length data - f.pos) in
          let n = Stdlib.min len avail in
          let out = Bytes.sub data f.pos n in
          f.pos <- f.pos + n;
          Ok out
    end

let write (wfd : Wfd.t) ~clock ~fd data =
  let st = state wfd in
  match find st fd with
  | Error e -> Error e
  | Ok Stdout -> Ok (Libos_stdio.host_stdout wfd ~clock data)
  | Ok (Socket { conn; at_client }) ->
      ignore clock;
      (* The TCP layer advances both endpoint clocks itself. *)
      Netsim.Tcp.send conn ~from_client:at_client data;
      Ok (Bytes.length data)
  | Ok (File f) -> begin
      match Libos_fatfs.fatfs_read wfd ~clock:(Clock.create ()) f.path with
      | Error _ as e -> e
      | Ok existing ->
          (* Splice at the descriptor position (rewrites the file — FAT
             has no in-place partial update). *)
          let head = Bytes.sub existing 0 (Stdlib.min f.pos (Bytes.length existing)) in
          let tail_start = f.pos + Bytes.length data in
          let tail =
            if tail_start < Bytes.length existing then
              Bytes.sub existing tail_start (Bytes.length existing - tail_start)
            else Bytes.empty
          in
          let combined = Bytes.concat Bytes.empty [ head; data; tail ] in
          (match Libos_fatfs.fatfs_write wfd ~clock f.path combined with
          | Error _ as e -> e
          | Ok _ ->
              f.pos <- f.pos + Bytes.length data;
              Ok (Bytes.length data))
    end

let close (wfd : Wfd.t) ~clock ~fd =
  let st = state wfd in
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Close);
  if Hashtbl.mem st.fds fd then begin
    Hashtbl.remove st.fds fd;
    Ok ()
  end
  else Error Errno.Ebadf

let lookup wfd fd = Hashtbl.find_opt (state wfd).fds fd
