(* Work posted to a node's loop thread by other threads, and the wake
   pipe the loop's [select] watches for it. This is the only node state
   that two threads touch; everything else belongs to the loop. *)

type 'a t = {
  mutex : Mutex.t;  (* guards every mutable field and [items] *)
  items : 'a Queue.t;
  mutable closed : bool;  (* the node is stopping: posts are refused *)
  mutable pipe_closed : bool;
      (* the pipe is closed and its fd numbers may already name another
         file: nothing may write to [pipe_w] *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
}

let create () =
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  (* A full pipe already guarantees a wake-up: [wake] never blocks. *)
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  { mutex = Mutex.create (); items = Queue.create (); closed = false;
    pipe_closed = false; pipe_r; pipe_w }

(* Readable whenever something was posted since the last [drain]. *)
let fd t = t.pipe_r

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Under [t.mutex], so a wake never races the pipe's close. *)
let wake t =
  if not t.pipe_closed then try ignore (Unix.write_substring t.pipe_w "x" 0 1) with _ -> ()

let post t x =
  with_lock t (fun () ->
      if t.closed then invalid_arg "Mailbox.post: node stopped";
      Queue.add x t.items;
      wake t)

(* Empty the pipe once [select] reports it readable. *)
let drain t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.pipe_r buf 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Everything posted so far, oldest first. *)
let take t =
  with_lock t (fun () ->
      let l = List.of_seq (Queue.to_seq t.items) in
      Queue.clear t.items;
      l)

(* Refuse further posts and wake the loop so that it sees [closed]. *)
let close t =
  with_lock t (fun () ->
      t.closed <- true;
      wake t)

let closed t = t.closed

(* Once the loop has exited: close the pipe, under the mutex so that a
   late [wake] writes nothing into a reused fd number. *)
let release t =
  with_lock t (fun () ->
      if not t.pipe_closed then begin
        t.pipe_closed <- true;
        (try Unix.close t.pipe_r with _ -> ());
        try Unix.close t.pipe_w with _ -> ()
      end)
