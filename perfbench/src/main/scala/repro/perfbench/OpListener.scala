package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** Spark work of one op, summed over its tasks. */
final class OpTotals {
  var jobs = 0
  var stages = 0
  var tasks = 0
  var runMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleWriteRecords = 0L
  var memSpillBytes = 0L
}

final case class JobSpan(id: Int, group: String, name: String, startMs: Long, endMs: Long,
                         outputBytes: Long)

final case class StageSpan(id: Int, attempt: Int, jobId: Int, group: String, name: String,
                           startMs: Long, endMs: Long, taskRunMs: Seq[Long], taskReadBytes: Seq[Long])

/** Attributes Spark work to ops through the job group set before each op.
  *
  * Totals are always kept. With `tracing` on it also records job and stage
  * spans and per-task run time and shuffle-read bytes. A span is named by
  * the program's callsite: the DataFrame action's for SQL jobs (adaptive
  * execution runs each query stage as its own job, from a pool thread),
  * otherwise the RDD action's.
  * All state is touched under the listener's lock: the bus thread writes,
  * the driver reads after draining the bus.
  */
final class OpListener extends SparkListener {
  @volatile var tracing = false

  private val openJobs = mutable.Map.empty[String, mutable.Set[Int]]
  private val groupOfStage = mutable.Map.empty[Int, String]
  private val jobOfStage = mutable.Map.empty[Int, Int]
  private val totals = mutable.Map.empty[String, OpTotals]

  private val sqlCallsite = mutable.Map.empty[Long, String]
  private val jobStarts = mutable.Map.empty[Int, (String, String, Long)]
  private val stageName = mutable.Map.empty[Int, String]
  private val jobOutput = mutable.Map.empty[Int, Long]
  private val stageTasks = mutable.Map.empty[(Int, Int), (ArrayBuffer[Long], ArrayBuffer[Long])]
  val jobSpans = ArrayBuffer.empty[JobSpan]
  val stageSpans = ArrayBuffer.empty[StageSpan]

  private def groupOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))

  private def totalsOf(group: String) = totals.getOrElseUpdate(group, new OpTotals)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    groupOf(e.properties).foreach { g =>
      openJobs.getOrElseUpdate(g, mutable.Set.empty) += e.jobId
      totalsOf(g).jobs += 1
      e.stageIds.foreach(s => jobOfStage(s) = e.jobId)
      if (tracing) {
        val sql = Option(e.properties.getProperty("spark.sql.execution.id")).flatMap(id => sqlCallsite.get(id.toLong))
        e.stageInfos.foreach(st => stageName(st.stageId) = sql.getOrElse(st.name))
        jobStarts(e.jobId) = (g, sql.getOrElse(e.stageInfos.maxByOption(_.stageId).fold("job")(_.name)), e.time)
      }
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    groupOf(e.properties).foreach { g =>
      groupOfStage(e.stageInfo.stageId) = g
      totalsOf(g).stages += 1
      if (tracing) stageTasks((e.stageInfo.stageId, e.stageInfo.attemptNumber())) =
        (ArrayBuffer.empty, ArrayBuffer.empty)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    groupOfStage.get(e.stageId).filter(_ => m != null).foreach { g =>
      val t = totalsOf(g)
      t.tasks += 1
      t.runMs += m.executorRunTime
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.shuffleWriteRecords += m.shuffleWriteMetrics.recordsWritten
      t.memSpillBytes += m.memoryBytesSpilled
      if (tracing) {
        stageTasks.get((e.stageId, e.stageAttemptId)).foreach { case (run, read) =>
          run += m.executorRunTime
          read += m.shuffleReadMetrics.totalBytesRead
        }
        jobOfStage.get(e.stageId).foreach(j => jobOutput(j) = jobOutput.getOrElse(j, 0L) + m.outputMetrics.bytesWritten)
      }
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    for {
      g <- groupOfStage.get(info.stageId)
      (run, read) <- stageTasks.remove((info.stageId, info.attemptNumber()))
      start <- info.submissionTime
      end <- info.completionTime
    } stageSpans += StageSpan(info.stageId, info.attemptNumber(), jobOfStage.getOrElse(info.stageId, -1),
      g, stageName.remove(info.stageId).getOrElse(info.name), start, end, run.toSeq, read.toSeq)
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case x: SparkListenerSQLExecutionStart => synchronized { sqlCallsite(x.executionId) = x.description }
    case _ =>
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    openJobs.valuesIterator.foreach(_ -= e.jobId)
    jobStarts.remove(e.jobId).foreach { case (g, name, start) =>
      jobSpans += JobSpan(e.jobId, g, name, start, e.time, jobOutput.remove(e.jobId).getOrElse(0L))
    }
  }

  /** The totals of `group`, and the ids of any job started under it that
    * has not ended. Call after draining the bus; for an op that returned
    * normally the set is empty.
    */
  def close(group: String): (OpTotals, Set[Int]) = synchronized {
    val open = openJobs.remove(group).fold(Set.empty[Int])(_.toSet)
    (totals.remove(group).getOrElse(new OpTotals), open)
  }
}
