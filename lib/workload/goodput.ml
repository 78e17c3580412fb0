let track_aggregate ts ~name ~interval conns =
  Obs.Timeseries.probe ts ~name ~unit_label:"bytes" ~interval (fun () ->
      Some
        (List.fold_left
           (fun acc conn -> acc +. float_of_int (Fabric.Conn.bytes_acked conn))
           0.0 conns))
