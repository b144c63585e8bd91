(** Unikraft unikernel deployed inside Firecracker.

    A specialised LibOS image (e.g. 1.6 MB for Nginx) boots in ~137 ms
    when launched through a VMM (Fig. 2): most of the time is VMM spawn
    and image load, not the unikernel itself. *)

val profile : Sandbox.profile
