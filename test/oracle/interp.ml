open Wasm

exception Trap of string

type t = {
  m : Wmodule.t;
  imports : string array;  (** Pre-resolved from the module's list. *)
  n_imports : int;
  funcs : Wmodule.func array;  (** Local functions by slot. *)
  import_fns : host_fn array;  (** Host bindings resolved at instantiate. *)
  mutable memory : Bytes.t;
  globals : int64 array;
  mutable executed : int;
  mutable fuel : int;
}

and host_fn = t -> int64 array -> int64

let max_pages = 4096 (* 256 MiB of linear memory *)

let trap fmt = Format.kasprintf (fun s -> raise (Trap s)) fmt

(* Growable operand stack: pushes and pops are array stores with no
   per-element cons cell.  [top] is the next free slot. *)
type vstack = { mutable buf : int64 array; mutable top : int }

let stack_make () = { buf = Array.make 32 0L; top = 0 }

let stack_push st v =
  let n = Array.length st.buf in
  if st.top = n then begin
    let bigger = Array.make (2 * n) 0L in
    Array.blit st.buf 0 bigger 0 n;
    st.buf <- bigger
  end;
  Array.unsafe_set st.buf st.top v;
  st.top <- st.top + 1

let stack_pop st =
  if st.top = 0 then trap "value stack underflow";
  st.top <- st.top - 1;
  Array.unsafe_get st.buf st.top

let stack_peek st =
  if st.top = 0 then trap "value stack underflow";
  Array.unsafe_get st.buf (st.top - 1)

let instantiate ?(hosts = []) m =
  Validate.validate_exn m;
  let table = Hashtbl.create 8 in
  List.iter (fun (name, fn) -> Hashtbl.replace table name fn) hosts;
  List.iter
    (fun name ->
      if not (Hashtbl.mem table name) then
        invalid_arg (Printf.sprintf "Oracle.Interp: missing host import %s" name))
    m.Wmodule.imports;
  let memory = Bytes.make (m.Wmodule.memory_pages * Wmodule.page_size) '\000' in
  List.iter
    (fun (off, data) -> Bytes.blit_string data 0 memory off (String.length data))
    m.Wmodule.data;
  let imports = Array.of_list m.Wmodule.imports in
  {
    m;
    imports;
    n_imports = Array.length imports;
    funcs = Array.of_list m.Wmodule.funcs;
    import_fns = Array.map (fun name -> Hashtbl.find table name) imports;
    memory;
    globals = Array.of_list m.Wmodule.globals;
    executed = 0;
    fuel = max_int;
  }

(* Control-flow outcome of executing a block body. *)
type control = Fall | Branch of int | Ret

(* The address a memory instruction touches, trapping unless all [len]
   bytes lie in memory.  An operand with bit 63 set is out of bounds. *)
let effective_addr t v off len =
  let addr = Int64.to_int v + off in
  if Int64.compare v 0L < 0 || addr < 0 || addr > Bytes.length t.memory - len then
    trap "memory access out of bounds: %Ld (+%d) of %d" (Int64.add v (Int64.of_int off)) len
      (Bytes.length t.memory);
  addr

let apply_binop op a b =
  let open Int64 in
  let bool v = if v then 1L else 0L in
  match op with
  | Instr.Add -> add a b
  | Instr.Sub -> sub a b
  | Instr.Mul -> mul a b
  | Instr.Div_s -> if b = 0L then trap "integer divide by zero" else div a b
  | Instr.Rem_s -> if b = 0L then trap "integer divide by zero" else rem a b
  | Instr.And -> logand a b
  | Instr.Or -> logor a b
  | Instr.Xor -> logxor a b
  | Instr.Shl -> shift_left a (to_int (logand b 63L))
  | Instr.Shr_s -> shift_right a (to_int (logand b 63L))
  | Instr.Eq -> bool (equal a b)
  | Instr.Ne -> bool (not (equal a b))
  | Instr.Lt_s -> bool (compare a b < 0)
  | Instr.Gt_s -> bool (compare a b > 0)
  | Instr.Le_s -> bool (compare a b <= 0)
  | Instr.Ge_s -> bool (compare a b >= 0)

let local_func t idx =
  let slot = idx - t.n_imports in
  if slot >= 0 && slot < Array.length t.funcs then Some t.funcs.(slot) else None

let rec call_function t idx args =
  if idx >= 0 && idx < t.n_imports then (Array.unsafe_get t.import_fns idx) t args
  else begin
    match local_func t idx with
    | None -> trap "call to undefined function %d" idx
    | Some f ->
        if Array.length args <> f.Wmodule.params then
          trap "%s expects %d args, got %d" f.Wmodule.fname f.Wmodule.params
            (Array.length args);
        let locals = Array.make (f.Wmodule.params + f.Wmodule.locals) 0L in
        Array.blit args 0 locals 0 (Array.length args);
        let stack = stack_make () in
        let _ = exec_body t locals stack f.Wmodule.body in
        if stack.top = 0 then 0L else stack.buf.(stack.top - 1)
  end

and exec_body t locals stack body =
  let rec exec_seq = function
    | [] -> Fall
    | instr :: rest -> begin
        match exec_instr instr with
        | Fall -> exec_seq rest
        | (Branch _ | Ret) as c -> c
      end
  and pop () = stack_pop stack
  and push v = stack_push stack v
  and exec_instr instr =
    t.executed <- t.executed + 1;
    t.fuel <- t.fuel - 1;
    if t.fuel < 0 then trap "out of fuel";
    match instr with
    | Instr.Nop -> Fall
    | Instr.Unreachable -> trap "unreachable executed"
    | Instr.Const v ->
        push v;
        Fall
    | Instr.Binop op ->
        let b = pop () in
        let a = pop () in
        push (apply_binop op a b);
        Fall
    | Instr.Eqz ->
        let v = pop () in
        push (if Int64.equal v 0L then 1L else 0L);
        Fall
    | Instr.Drop ->
        ignore (pop ());
        Fall
    | Instr.Select ->
        let cond = pop () in
        let b = pop () in
        let a = pop () in
        push (if Int64.equal cond 0L then b else a);
        Fall
    | Instr.Local_get i ->
        push locals.(i);
        Fall
    | Instr.Local_set i ->
        locals.(i) <- pop ();
        Fall
    | Instr.Local_tee i ->
        locals.(i) <- stack_peek stack;
        Fall
    | Instr.Global_get i ->
        push t.globals.(i);
        Fall
    | Instr.Global_set i ->
        t.globals.(i) <- pop ();
        Fall
    | Instr.Load8 off ->
        let addr = effective_addr t (pop ()) off 1 in
        push (Int64.of_int (Char.code (Bytes.get t.memory addr)));
        Fall
    | Instr.Load64 off ->
        let addr = effective_addr t (pop ()) off 8 in
        push (Bytes.get_int64_le t.memory addr);
        Fall
    | Instr.Store8 off ->
        let v = pop () in
        let addr = effective_addr t (pop ()) off 1 in
        Bytes.set t.memory addr (Char.chr (Int64.to_int (Int64.logand v 0xFFL)));
        Fall
    | Instr.Store64 off ->
        let v = pop () in
        let addr = effective_addr t (pop ()) off 8 in
        Bytes.set_int64_le t.memory addr v;
        Fall
    | Instr.Memory_size ->
        push (Int64.of_int (Bytes.length t.memory / Wmodule.page_size));
        Fall
    | Instr.Memory_grow ->
        let delta = Int64.to_int (pop ()) in
        let old_pages = Bytes.length t.memory / Wmodule.page_size in
        if delta < 0 || old_pages + delta > max_pages then push (-1L)
        else begin
          let bigger = Bytes.make ((old_pages + delta) * Wmodule.page_size) '\000' in
          Bytes.blit t.memory 0 bigger 0 (Bytes.length t.memory);
          t.memory <- bigger;
          push (Int64.of_int old_pages)
        end;
        Fall
    | Instr.Block body -> begin
        match exec_seq body with
        | Fall | Branch 0 -> Fall
        | Branch n -> Branch (n - 1)
        | Ret -> Ret
      end
    | Instr.Loop body -> exec_loop body
    | Instr.If (then_, else_) -> begin
        let cond = pop () in
        let body = if Int64.equal cond 0L then else_ else then_ in
        match exec_seq body with
        | Fall | Branch 0 -> Fall
        | Branch n -> Branch (n - 1)
        | Ret -> Ret
      end
    | Instr.Br n -> Branch n
    | Instr.Br_if n ->
        let cond = pop () in
        if Int64.equal cond 0L then Fall else Branch n
    | Instr.Return -> Ret
    | Instr.Call idx ->
        let callee_params =
          if idx >= 0 && idx < t.n_imports then begin
            (* Host imports in this machine take their arity from the
               stack contract: we pass the whole accessible frame.  To
               keep arity explicit we adopt the convention that host
               functions receive 3 arguments. *)
            3
          end
          else begin
            match local_func t idx with
            | Some f -> f.Wmodule.params
            | None -> trap "call to undefined function %d" idx
          end
        in
        let args = Array.make callee_params 0L in
        for i = callee_params - 1 downto 0 do
          args.(i) <- pop ()
        done;
        push (call_function t idx args);
        Fall
  and exec_loop body =
    match exec_seq body with
    | Branch 0 -> exec_loop body (* br to a loop label restarts it *)
    | Fall -> Fall
    | Branch n -> Branch (n - 1)
    | Ret -> Ret
  in
  exec_seq body

let call ?(fuel = 200_000_000) t name args =
  match Wmodule.lookup_export t.m name with
  | None -> invalid_arg (Printf.sprintf "Oracle.Interp: no export %s" name)
  | Some idx ->
      t.fuel <- fuel;
      call_function t idx args

let executed t = t.executed
