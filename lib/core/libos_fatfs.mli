(** as-libos [fatfs] module: files inside the WFD's virtual disk image
    (Table 2).

    Thin layer over the WFD's {!Fsim.Vfs.t} (a rust-fatfs-style FAT
    image by default; ramfs for the Fig. 16 experiment).  Module init
    charges mounting the image (reading the FAT and root directory). *)

val init : Wfd.t -> clock:Sim.Clock.t -> unit

val fatfs_read : Wfd.t -> clock:Sim.Clock.t -> string -> (bytes, Errno.t) result
val fatfs_write : Wfd.t -> clock:Sim.Clock.t -> string -> bytes -> (int, Errno.t) result
val fatfs_exists : Wfd.t -> string -> bool
val fatfs_delete : Wfd.t -> clock:Sim.Clock.t -> string -> (unit, Errno.t) result
