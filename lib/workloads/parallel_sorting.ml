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

(* LSD radix sort of the packed records, from [Bytes] to [Bytes]: three
   11-bit passes over the unsigned 32-bit key, with all three digit
   counts taken in one read of the input.  Stable and O(n); the
   unsigned record order is the order of the zero-extended keys. *)
let digit_bits = 11
let radix = 1 lsl digit_bits

let[@inline] key b i = Int32.to_int (Bytes.get_int32_le b (4 * i)) land 0xFFFF_FFFF

let sort_records data =
  let n = Datagen.record_count data in
  let out = Bytes.create (4 * n) and tmp = Bytes.create (4 * n) in
  (* [counts.(p * radix + d)]: how many keys have digit [d] in pass [p],
     turned into each digit's first output index. *)
  let counts = Array.make (3 * radix) 0 in
  for i = 0 to n - 1 do
    let k = key data i in
    let d0 = k land (radix - 1) in
    let d1 = radix + ((k lsr digit_bits) land (radix - 1)) in
    let d2 = (2 * radix) + (k lsr (2 * digit_bits)) in
    counts.(d0) <- counts.(d0) + 1;
    counts.(d1) <- counts.(d1) + 1;
    counts.(d2) <- counts.(d2) + 1
  done;
  for p = 0 to 2 do
    let sum = ref 0 in
    for d = p * radix to ((p + 1) * radix) - 1 do
      let c = counts.(d) in
      counts.(d) <- !sum;
      sum := !sum + c
    done
  done;
  let pass p from into =
    let shift = p * digit_bits and base = p * radix in
    for i = 0 to n - 1 do
      let v = Bytes.get_int32_le from (4 * i) in
      let d = base + (((Int32.to_int v land 0xFFFF_FFFF) lsr shift) land (radix - 1)) in
      let at = counts.(d) in
      Bytes.set_int32_le into (4 * at) v;
      counts.(d) <- at + 1
    done
  in
  pass 0 data out;
  pass 1 out tmp;
  pass 2 tmp out;
  out

let is_sorted data =
  let n = Datagen.record_count data in
  let rec go i =
    i >= n
    || unsigned_compare (Datagen.get_record data (i - 1)) (Datagen.get_record data i) <= 0
       && go (i + 1)
  in
  n = 0 || go 1

let[@inline] bucket_of v ~buckets =
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
  let buckets = ref [||] in
  (* Two reads of the records: one sizes the buckets, the other copies
     each record into its bucket in input order.  A record stays an
     unboxed [int32] throughout. *)
  ctx.Fctx.phase Fctx.phase_compute (fun () ->
      let sizes = Array.make p 0 in
      for i = 0 to n - 1 do
        let b = bucket_of (Bytes.get_int32_le data (4 * i)) ~buckets:p in
        sizes.(b) <- sizes.(b) + 1
      done;
      let out = Array.map (fun k -> Bytes.create (4 * k)) sizes in
      let filled = Array.make p 0 in
      for i = 0 to n - 1 do
        let v = Bytes.get_int32_le data (4 * i) in
        let b = bucket_of v ~buckets:p in
        Bytes.set_int32_le out.(b) (4 * filled.(b)) v;
        filled.(b) <- filled.(b) + 1
      done;
      buckets := out;
      Fctx.compute_bytes ctx ~ns_per_byte:split_ns_per_byte (Bytes.length data));
  ctx.Fctx.phase Fctx.phase_transfer (fun () ->
      Array.iteri (fun i bucket -> ctx.Fctx.send ~slot:(bucket_slot i) bucket) !buckets)

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
