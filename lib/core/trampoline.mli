(** The as-std trampoline: PKRU switching between user and system
    contexts (Fig. 9 of the paper).

    Entering as-libos from user code saves the context, switches to the
    system stack, raises PKRU to the system rights word and jumps;
    returning performs the reverse.  The switch is modelled faithfully:
    the thread's PKRU field really changes, so any simulated memory
    access in the wrong context raises a protection fault — and the
    trampoline pages themselves must be executable under the user
    rights, which {!enter_system} checks by fetching from them. *)

exception Not_in_user_context
(** Raised when entering the system while already in system context —
    trampolines are not reentrant. *)

val enter_system : Wfd.t -> Wfd.thread -> (unit -> 'a) -> 'a
(** [enter_system wfd thread f] raises rights, runs [f] (as-libos
    work), restores user rights, and charges two trampoline switches
    to the thread's clock.  Exceptions from [f] still restore user
    rights. *)

val enter : Wfd.t -> Wfd.thread -> unit
(** The first half of {!enter_system}: fetch the trampoline under the
    user rights, charge one switch and raise the thread's rights to the
    system word.  Raises {!Not_in_user_context} if they are raised
    already.  Allocates nothing; pair it with {!leave} on every exit,
    exceptions included. *)

val leave : Wfd.thread -> unit
(** The second half: restore the thread's user rights and charge the
    switch back. *)

val in_system : Wfd.thread -> bool
