open Sim

(* Mounting: superblock + FAT + root directory reads. *)
let mount_cost = Units.us 900

let init (_wfd : Wfd.t) ~clock = Clock.advance clock mount_cost

let fatfs_read (wfd : Wfd.t) ~clock path =
  match wfd.Wfd.vfs.Fsim.Vfs.read_file ~clock path with
  | data -> Ok data
  | exception Not_found -> Error Errno.Enoent
  | exception Fsim.Vfs.Io_error _ -> Error Errno.Eio

let fatfs_write (wfd : Wfd.t) ~clock path data =
  match wfd.Wfd.vfs.Fsim.Vfs.write_file ~clock path data with
  | () -> Ok (Bytes.length data)
  | exception Fsim.Vfs.Io_error _ -> Error Errno.Eio

let fatfs_exists (wfd : Wfd.t) path = wfd.Wfd.vfs.Fsim.Vfs.exists path

let fatfs_delete (wfd : Wfd.t) ~clock path =
  Clock.advance clock (Hostos.Syscall.cost Hostos.Syscall.Close);
  match wfd.Wfd.vfs.Fsim.Vfs.delete path with
  | () -> Ok ()
  | exception Not_found -> Error Errno.Enoent
