package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer
import repro.perfbench.Main.{Args, Op, Setup, median}

/** Per-layer metrics of a traced run, from the op records, the listener's
  * job and stage spans and the kernel counters.
  */
object Trace {

  /** Length of the union of `spans`, clipped to [from, to]. */
  def covered(spans: Seq[(Long, Long)], from: Long, to: Long): Long = {
    var total = 0L
    var reach = from
    spans.map { case (s, e) => (math.max(s, from), math.min(e, to)) }.filter { case (s, e) => e > s }
      .sortBy(_._1).foreach { case (s, e) =>
        if (e > reach) { total += e - math.max(s, reach); reach = e }
      }
    total
  }

  private def p50(xs: Seq[Long]): Long = xs.sorted.apply(xs.size / 2)

  private def jsonStr(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  def report(a: Args, w: Workload, s: Setup, setups: Seq[Setup], untraced: Seq[Op],
             traced: Seq[Op]): (Seq[(String, (Double, String))], Boolean) = {
    val lis = s.listener
    val k = w.model.layers.size
    val n = s.graph.n.toLong
    val e = s.graph.nEdges.toLong

    val out = ArrayBuffer.empty[(String, (Double, String))]
    val notes = ArrayBuffer.empty[String]
    def put(name: String, v: Double, unit: String, note: String = ""): Unit = {
      out += name -> (v, unit)
      notes += note
    }
    def med(ops: Seq[Op])(f: Op => Double): Double = median(ops.map(f))

    put("jobs.session_s", median(setups.map(_.sessionS)), "s", s"median of ${setups.size} set-ups")
    put("graphgen.gen_s", median(setups.map(_.genS)), "s", s"median of ${setups.size} set-ups")
    put("graphgen.nodes", n.toDouble, "count")
    put("graphgen.edges", e.toDouble, "count")
    put("graphgen.max_in_deg", s.graph.inDegree.max.toDouble, "count")
    put("graphgen.max_out_deg", s.graph.outDegree.max.toDouble, "count")
    put("core.local_forward_s", median(setups.map(_.localS)), "s", "single-threaded LocalInference.forward")

    var guards = true
    Main.Backends.foreach { b =>
      val ops = traced.filter(_.backend == b)
      val kern = ops.map(_.kernels.get)
      val base = n * k
      val baseNote = s"base $n vertices x $k layers"
      val payloadCalls = median(kern.map(_.payloadCalls.toDouble))
      val nodeCalls = median(kern.map(_.nodeCalls.toDouble))
      put(s"core.$b.payload_calls_per_vl", payloadCalls / base, "ratio", f"$payloadCalls%.0f calls, $baseNote")
      put(s"core.$b.apply_node_calls_per_vl", nodeCalls / base, "ratio", f"$nodeCalls%.0f calls, $baseNote")
      if (kern.exists(_.nodeCalls != base)) {
        System.err.println(s"[perfbench] $b applyNode calls ${kern.map(_.nodeCalls).mkString(",")} != $base")
        guards = false
      }
      // base: the traced ops' summed task run time, the traced cpu_s
      val runMs = median(ops.map(_.totals.runMs.toDouble))
      def kernelMs(name: String, ms: Double): Unit =
        put(s"core.$b.${name}_ms", ms, "ms", f"${100 * ms / runMs}%.1f%% of $runMs%.0f ms task run time per op")
      kernelMs("payload", median(kern.map(_.payloadNs / 1e6)))
      kernelMs("apply_edge", median(kern.map(_.edgeNs / 1e6)))
      kernelMs("apply_node", median(kern.map(_.nodeNs / 1e6)))
      put(s"core.$b.union_msgs", median(kern.map(_.unionMsgs.toDouble)), "count", "Unioned entries reaching applyNode")
      put(s"core.$b.union_max", median(kern.map(_.unionMax.toDouble)), "count", "longest Unioned list")
    }

    val selfByName = scala.collection.mutable.Map.empty[(String, String), Long]
    Seq("pregel" -> "pregel", "batch" -> "mr").foreach { case (layer, b) =>
      val ops = traced.filter(_.backend == b)
      def jobsOf(o: Op) = lis.jobSpans.filter(_.group == o.group).toSeq
      def stagesOf(o: Op) = lis.stageSpans.filter(_.group == o.group).toSeq
      ops.foreach { o =>
        stagesOf(o).foreach(st => selfByName((b, "stage " + st.name)) =
          selfByName.getOrElse((b, "stage " + st.name), 0L) + st.endMs - st.startMs)
        jobsOf(o).foreach { j =>
          val self = j.endMs - j.startMs -
            covered(stagesOf(o).filter(_.jobId == j.id).map(st => (st.startMs, st.endMs)), j.startMs, j.endMs)
          selfByName((b, "job " + j.name)) = selfByName.getOrElse((b, "job " + j.name), 0L) + self
        }
      }
      put(s"$layer.jobs", med(ops)(_.totals.jobs.toDouble), "count")
      put(s"$layer.stages", med(ops)(_.totals.stages.toDouble), "count")
      put(s"$layer.tasks", med(ops)(_.totals.tasks.toDouble), "count")
      val driverSelf = med(ops)(o =>
        (o.endMs - o.startMs - covered(jobsOf(o).map(j => (j.startMs, j.endMs)), o.startMs, o.endMs)) / 1e3)
      val wall = med(ops)(_.wallS)
      put(s"$layer.driver_self_s", driverSelf, "s",
        f"op wall not covered by any Spark job, ${100 * driverSelf / wall}%.1f%% of $wall%.3f s")
      put(s"$layer.task_skew", med(ops)(o => stagesOf(o).filter(_.taskRunMs.size >= 2)
        .map(st => st.taskRunMs.max.toDouble / math.max(1L, p50(st.taskRunMs))).maxOption.getOrElse(1.0)),
        "ratio", "worst stage: max / p50 task run time (p50 floored at 1 ms)")
      put(s"$layer.read_skew", med(ops)(o => stagesOf(o).filter(st => st.taskReadBytes.size >= 2 && p50(st.taskReadBytes) > 0)
        .map(st => st.taskReadBytes.max.toDouble / p50(st.taskReadBytes)).maxOption.getOrElse(1.0)),
        "ratio", "worst stage: max / p50 task shuffle-read bytes")
      put(s"$layer.gc_ms", med(ops)(_.gcMs.toDouble), "ms", "JVM GC time during the op")
      put(s"$layer.mem_spill_mb", med(ops)(_.totals.memSpillBytes / 1e6), "MB")
      put(s"$layer.persisted_rdds_left", med(ops)(_.persistedLeft.toDouble), "count", "RDDs persisted when the op returns")
      if (layer == "batch") {
        // a round ends when the job writing its node table ends
        def rounds(o: Op): Seq[Long] = {
          val ends = jobsOf(o).filter(_.outputBytes > 0).map(_.endMs).sorted
          (o.startMs +: ends.dropRight(1)).zip(ends).map { case (from, to) => to - from }
        }
        put("batch.round_s_max", med(ops)(o => rounds(o).maxOption.getOrElse(0L) / 1e3), "s",
          s"rounds per op: ${ops.map(rounds(_).size).distinct.mkString("/")}")
        put("batch.round_s_sum", med(ops)(o => rounds(o).sum / 1e3), "s")
        put("batch.spill_s", med(ops)(o => covered(jobsOf(o).filter(_.outputBytes > 0)
          .map(j => (j.startMs, j.endMs)), o.startMs, o.endMs) / 1e3), "s", "jobs that write a round's node table")
        val recs = med(ops)(_.totals.shuffleWriteRecords.toDouble)
        put("batch.records_per_edge_layer", recs / (e * k), "ratio", f"$recs%.0f records, base $e edges x $k layers")
      }
    }

    def wallSum(ops: Seq[Op]) = Main.Backends.map(b => median(ops.filter(_.backend == b).map(_.wallS))).sum
    val (u, t) = (wallSum(untraced), wallSum(traced))
    put("trace.overhead_frac", (t - u) / u, "ratio", f"traced $t%.3f s vs untraced $u%.3f s per rep")

    val spanFile = writeSpans(a, traced, lis)
    println(s"per-layer metrics (${a.workload}, seed ${a.seed}, ${traced.size} traced ops):")
    out.zip(notes).foreach { case ((name, (v, unit)), note) =>
      println(f"  $name%-34s $v%14.4f $unit%-6s $note")
    }
    println("time per op by span name, top 12 (job: self time outside its stages; stage: duration, " +
      "and concurrent stages overlap):")
    selfByName.toSeq.sortBy(-_._2).take(12).foreach { case ((b, name), ms) =>
      val ops = traced.count(_.backend == b)
      println(f"  $b%-6s ${ms.toDouble / ops}%10.1f ms  $name")
    }
    println(s"spans: $spanFile")
    (out.toSeq, guards)
  }

  /** One JSON line per span: ops (parent none), their jobs, and the jobs' stages. */
  private def writeSpans(a: Args, traced: Seq[Op], lis: OpListener): File = {
    val f = new File(a.workDir, s"spans-${a.workload}-${a.seed}.jsonl")
    val pw = new PrintWriter(f)
    def line(trace: Int, kind: String, id: String, parent: String, name: String, start: Long, end: Long, self: Long): Unit =
      pw.println(s"""{"trace": $trace, "kind": "$kind", "id": ${jsonStr(id)}, "parent": ${jsonStr(parent)}, """ +
        s""""name": ${jsonStr(name)}, "start_ms": $start, "end_ms": $end, "self_ms": $self}""")
    try traced.foreach { o =>
      val jobs = lis.jobSpans.filter(_.group == o.group)
      val stages = lis.stageSpans.filter(_.group == o.group)
      line(o.rep, "op", o.group, "", s"op ${o.backend}", o.startMs, o.endMs,
        o.endMs - o.startMs - covered(jobs.map(j => (j.startMs, j.endMs)).toSeq, o.startMs, o.endMs))
      jobs.foreach { j =>
        val js = stages.filter(_.jobId == j.id)
        line(o.rep, "job", s"job-${j.id}", o.group, j.name, j.startMs, j.endMs,
          j.endMs - j.startMs - covered(js.map(st => (st.startMs, st.endMs)).toSeq, j.startMs, j.endMs))
        js.foreach(st => line(o.rep, "stage", s"stage-${st.id}.${st.attempt}", s"job-${j.id}", st.name,
          st.startMs, st.endMs, st.endMs - st.startMs))
      }
    } finally pw.close()
    f
  }
}
