let is_sep c = c = ' ' || c = '\n' || c = '\t' || c = '\r'

let count_words data =
  let counts = Hashtbl.create 1024 in
  let n = Bytes.length data in
  (* One lookup per word: a known word bumps its counter in place, a
     new one is added where [Hashtbl.replace] would have put it. *)
  let flush start stop =
    if stop > start then begin
      let w = Bytes.sub_string data start (stop - start) in
      match Hashtbl.find counts w with
      | c -> incr c
      | exception Not_found -> Hashtbl.add counts w (ref 1)
    end
  in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if is_sep (Bytes.get data i) then begin
      flush !start i;
      start := i + 1
    end
  done;
  flush !start n;
  counts
