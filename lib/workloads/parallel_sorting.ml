let input_path = "/input/records.bin"
let output_path = "/output/sorted.bin"

(* Native compute rates: partitioning is a streaming pass; sorting is
   charged per record * log2(records). *)
let split_ns_per_byte = 0.35
let concat_ns_per_byte = 0.12
let sort_ns_per_compare = 1.05

let unsigned_compare (a : int32) (b : int32) =
  (* Flip the sign bit to compare as unsigned. *)
  Int32.compare (Int32.logxor a Int32.min_int) (Int32.logxor b Int32.min_int)

let sort_records data =
  (* LSD radix sort over zero-extended 32-bit keys, two 16-bit passes:
     O(n), stable, and the unsigned record order equals the natural
     order of the extended ints. *)
  let n = Datagen.record_count data in
  let src = Array.init n (fun i -> Int32.to_int (Datagen.get_record data i) land 0xFFFF_FFFF) in
  let dst = Array.make n 0 in
  let radix = 1 lsl 16 in
  let counts = Array.make (radix + 1) 0 in
  let pass ~shift from into =
    Array.fill counts 0 (radix + 1) 0;
    for i = 0 to n - 1 do
      let d = (from.(i) lsr shift) land (radix - 1) in
      counts.(d + 1) <- counts.(d + 1) + 1
    done;
    for d = 1 to radix do
      counts.(d) <- counts.(d) + counts.(d - 1)
    done;
    for i = 0 to n - 1 do
      let d = (from.(i) lsr shift) land (radix - 1) in
      into.(counts.(d)) <- from.(i);
      counts.(d) <- counts.(d) + 1
    done
  in
  if n > 0 then begin
    pass ~shift:0 src dst;
    pass ~shift:16 dst src
  end;
  let out = Bytes.create (n * 4) in
  Array.iteri (fun i v -> Datagen.set_record out i (Int32.of_int v)) src;
  out

let is_sorted data =
  let n = Datagen.record_count data in
  let rec go i =
    i >= n
    || unsigned_compare (Datagen.get_record data (i - 1)) (Datagen.get_record data i) <= 0
       && go (i + 1)
  in
  n = 0 || go 1

let bucket_of v ~buckets =
  (* Top bits of the unsigned value. *)
  let u = Int32.to_int (Int32.shift_right_logical v 8) land 0xFFFFFF in
  u * buckets / 0x1000000

let bucket_slot i = Printf.sprintf "ps.bucket.%d" i
let sorted_slot i = Printf.sprintf "ps.sorted.%d" i

let sort_cost_ns records =
  if records < 2 then 0.0
  else begin
    let n = float_of_int records in
    n *. (log n /. log 2.0) *. sort_ns_per_compare
  end

let split_kernel p (ctx : Fctx.t) =
  let data = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_read (fun () -> data := ctx.Fctx.read_input input_path);
  let data = !data in
  let n = Datagen.record_count data in
  let buckets = Array.make p (Buffer.create 16) in
  for i = 0 to p - 1 do
    buckets.(i) <- Buffer.create (Bytes.length data / Stdlib.max 1 p)
  done;
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      for i = 0 to n - 1 do
        let v = Datagen.get_record data i in
        Buffer.add_int32_le buckets.(bucket_of v ~buckets:p) v
      done;
      Fctx.compute_bytes ctx ~ns_per_byte:split_ns_per_byte (Bytes.length data));
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      Array.iteri
        (fun i buf -> ctx.Fctx.send ~slot:(bucket_slot i) (Buffer.to_bytes buf))
        buckets)

let sort_kernel (ctx : Fctx.t) =
  let i = ctx.Fctx.instance in
  let bucket = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_transfer (fun () -> bucket := ctx.Fctx.recv ~slot:(bucket_slot i));
  let sorted = ref Bytes.empty in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      sorted := sort_records !bucket;
      ctx.Fctx.compute
        (Sim.Units.ns_f (sort_cost_ns (Datagen.record_count !bucket))));
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      ctx.Fctx.send ~slot:(sorted_slot i) !sorted)

let merge_kernel p (ctx : Fctx.t) =
  let parts = ref [] in
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      for i = p - 1 downto 0 do
        parts := ctx.Fctx.recv ~slot:(sorted_slot i) :: !parts
      done);
  let out = Bytes.concat Bytes.empty !parts in
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      Fctx.compute_bytes ctx ~ns_per_byte:concat_ns_per_byte (Bytes.length out));
  if not (is_sorted out) then failwith "ParallelSorting: merge produced unsorted output";
  ctx.Fctx.write_output output_path out;
  ctx.Fctx.println "parallel-sorting done"

let app ~seed ~size ~instances =
  let p = instances in
  let count = size / 4 in
  let input = Datagen.int32_records ~seed ~count in
  {
    Fctx.app_name = "ParallelSorting";
    stages =
      [ ("split", 1, split_kernel p); ("sort", p, sort_kernel); ("merge", 1, merge_kernel p) ];
    inputs = [ (input_path, input) ];
    validate =
      (fun ~read_output ->
        match read_output output_path with
        | None -> Error "no output file"
        | Some data ->
            if Bytes.length data <> count * 4 then
              Error
                (Printf.sprintf "sorted output has %d bytes, expected %d"
                   (Bytes.length data) (count * 4))
            else if not (is_sorted data) then Error "output is not sorted"
            else Ok ());
    modules = [ "mm"; "fdtab"; "stdio"; "time"; "fatfs" ];
  }
