(* One page of the paged columnar format: a fixed number of rows of every
   column, encoded column-major in the column's CURRENT representation
   ([Ints] as i64, [Floats] by bit pattern, [Boxed] as tagged values), so a
   decode rebuilds columns bit-identical to the slice that was encoded.

   Wire layout:

     page    := magic "BPG1" , Codec.frame(payload)
     payload := index u32 , rows u32 , ncols u8 , column*
     column  := tag u8 (0 ints | 1 floats | 2 boxed) , cell{rows}

   The frame ([len][crc32][payload], [Relational.Codec.frame]) makes every
   header field and cell checksum-protected: a torn tail or a flipped bit
   reads as "no page", located at the page's byte offset in the file. *)

module Codec = Relational.Codec
module Column = Relational.Column

let magic = "BPG1"

type t = { index : int; rows : int; columns : Column.t array }

(* A page is written once, into bytes of its exact size, and checksummed
   there. *)
let encode ~index rel ~lo ~rows =
  let cols = Relational.Relation.columns rel in
  let cells col =
    match Column.data col with
    | Column.Ints _ | Column.Floats _ -> 8 * rows
    | Column.Boxed a ->
        let n = ref 0 in
        for i = lo to lo + rows - 1 do
          n := !n + Codec.value_size a.(i)
        done;
        !n
  in
  let len = Array.fold_left (fun n col -> n + 1 + cells col) 9 cols in
  let mlen = String.length magic in
  let b = Bytes.create (mlen + Codec.frame_header + len) in
  Bytes.blit_string magic 0 b 0 mlen;
  let p = mlen + Codec.frame_header in
  Bytes.set_int32_le b p (Int32.of_int index);
  Bytes.set_int32_le b (p + 4) (Int32.of_int rows);
  Bytes.set_uint8 b (p + 8) (Array.length cols);
  let p = ref (p + 9) in
  Array.iter
    (fun col ->
      let cell = !p + 1 in
      match Column.data col with
      | Column.Ints a ->
          Bytes.set_uint8 b !p 0;
          for i = 0 to rows - 1 do
            Bytes.set_int64_le b (cell + (8 * i)) (Int64.of_int a.(lo + i))
          done;
          p := cell + (8 * rows)
      | Column.Floats a ->
          Bytes.set_uint8 b !p 1;
          for i = 0 to rows - 1 do
            Bytes.set_int64_le b (cell + (8 * i)) (Int64.bits_of_float a.(lo + i))
          done;
          p := cell + (8 * rows)
      | Column.Boxed a ->
          Bytes.set_uint8 b !p 2;
          p := cell;
          for i = lo to lo + rows - 1 do
            p := Codec.put_value b !p a.(i)
          done)
    cols;
  Codec.seal_frame b ~pos:mlen ~len;
  Bytes.unsafe_to_string b

let pages_recycled = Obs.counter "store.pages_recycled"

(* Decode the page held in the first [len] bytes of [s] (default: all of
   it). [at] is the page's byte offset in its file: errors are located at
   their offset in the page image plus [at]. Every cell is copied out of
   [s], so the caller may reuse it once [decode] returns.

   An Ints or Floats column is decoded into the same column of [into] when
   that one has the same representation and exactly [rows] cells, and into
   a fresh array otherwise; a Boxed column is always fresh. The caller
   gives up [into]: its arrays now belong to the new page. A page that
   reuses any array counts once in [store.pages_recycled]. *)
let decode ?(at = 0) ?len ?into s =
  let relocate e =
    let offset = if e.Codec.offset < 0 then at else at + e.Codec.offset in
    Codec.fail ~offset e.Codec.reason
  in
  try
    let rd = Codec.reader ?len s in
    let mlen = String.length magic in
    if Codec.remaining rd < mlen || String.sub s 0 mlen <> magic then
      Codec.fail ~offset:0 "bad page magic";
    rd.Codec.pos <- mlen;
    let rd = Codec.read_frame rd in
    let index = Codec.read_u32 rd in
    let rows = Codec.read_u32 rd in
    let ncols = Codec.read_u8 rd in
    let spare j =
      match into with
      | Some p when j < Array.length p.columns -> Column.data p.columns.(j)
      | _ -> Column.Boxed [||]
    in
    let recycled = ref false in
    let columns =
      Array.init ncols (fun j ->
          let tag_at = rd.Codec.pos in
          match (Codec.read_u8 rd, spare j) with
          | 0, Column.Ints a when Array.length a = rows ->
              Codec.read_i64s_into rd a;
              recycled := true;
              Column.of_ints a
          | 1, Column.Floats a when Array.length a = rows ->
              Codec.read_f64s_into rd a;
              recycled := true;
              Column.of_floats a
          | 0, _ -> Column.of_ints (Codec.read_i64s rd rows)
          | 1, _ -> Column.of_floats (Codec.read_f64s rd rows)
          | 2, _ -> Column.of_boxed (Array.init rows (fun _ -> Codec.read_value rd))
          | tag, _ -> Codec.fail ~offset:tag_at (Printf.sprintf "bad column tag %d" tag))
    in
    if !recycled then Obs.incr pages_recycled;
    { index; rows; columns }
  with Codec.Decode_error e -> relocate e

let to_relation name schema page =
  Relational.Relation.of_columns name schema page.columns page.rows
