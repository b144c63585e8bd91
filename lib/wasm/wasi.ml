type errno = Success | Badf | Inval | Noent | Fault

let errno_code = function
  | Success -> 0L
  | Badf -> 8L
  | Inval -> 28L
  | Noent -> 44L
  | Fault -> 21L

type system = {
  sys_write : fd:int -> bytes -> int;
  sys_read : fd:int -> int -> bytes;
  sys_open : string -> int;
  sys_close : int -> bool;
  sys_clock_now : unit -> int64;
  sys_random : int -> bytes;
  sys_args : unit -> string list;
  sys_proc_exit : int -> unit;
  sys_buffer_register : string -> bytes -> bool;
  sys_access_buffer : string -> bytes option;
}

let null_system =
  {
    sys_write = (fun ~fd:_ _ -> -1);
    sys_read = (fun ~fd:_ _ -> Bytes.empty);
    sys_open = (fun _ -> -1);
    sys_close = (fun _ -> false);
    sys_clock_now = (fun () -> 0L);
    sys_random = (fun n -> Bytes.make n '\000');
    sys_args = (fun () -> []);
    sys_proc_exit = (fun _ -> ());
    sys_buffer_register = (fun _ _ -> false);
    sys_access_buffer = (fun _ -> None);
  }

(* Build the import list over an instance's memory accessors. *)
let make_imports (type inst) ~(read : inst -> int -> int -> bytes)
    ~(write : inst -> int -> bytes -> unit) (sys : system) :
    (string * (inst -> int64 array -> int64)) list =
  let i64 = Int64.of_int in
  let int v = Int64.to_int v in
  [
    ( "fd_write",
      fun m args ->
        let fd = int args.(0) and ptr = int args.(1) and len = int args.(2) in
        i64 (sys.sys_write ~fd (read m ptr len)) );
    ( "fd_read",
      fun m args ->
        let fd = int args.(0) and ptr = int args.(1) and len = int args.(2) in
        let data = sys.sys_read ~fd len in
        write m ptr data;
        i64 (Bytes.length data) );
    ( "path_open",
      fun m args ->
        let ptr = int args.(0) and len = int args.(1) in
        i64 (sys.sys_open (Bytes.to_string (read m ptr len))) );
    ("fd_close", fun _ args -> if sys.sys_close (int args.(0)) then 0L else errno_code Badf);
    ("clock_time_get", fun _ _ -> sys.sys_clock_now ());
    ( "random_get",
      fun m args ->
        let ptr = int args.(0) and len = int args.(1) in
        write m ptr (sys.sys_random len);
        0L );
    ("args_sizes_get", fun _ _ -> i64 (List.length (sys.sys_args ())));
    ( "proc_exit",
      fun _ args ->
        sys.sys_proc_exit (int args.(0));
        0L );
    ( (* buffer_register(slot_ptr, slot_len, packed) where
         packed = data_ptr << 32 | data_len. *)
      "buffer_register",
      fun m args ->
        let slot = Bytes.to_string (read m (int args.(0)) (int args.(1))) in
        let packed = args.(2) in
        let data_ptr = Int64.to_int (Int64.shift_right_logical packed 32) in
        let data_len = Int64.to_int (Int64.logand packed 0xFFFF_FFFFL) in
        if sys.sys_buffer_register slot (read m data_ptr data_len) then 0L
        else errno_code Inval );
    ( (* access_buffer(slot_ptr, slot_len, dest_ptr) -> length or -1. *)
      "access_buffer",
      fun m args ->
        let slot = Bytes.to_string (read m (int args.(0)) (int args.(1))) in
        match sys.sys_access_buffer slot with
        | None -> -1L
        | Some data ->
            write m (int args.(2)) data;
            i64 (Bytes.length data) );
  ]

let aot_imports sys = make_imports ~read:Aot.read_memory ~write:Aot.write_memory sys
