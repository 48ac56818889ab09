package repro.metrics

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.repro.BusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Resource accounting for one measured region — the stand-in for the
  * paper's `cpu*min`: summed executor task time plus any driver-side
  * compute the caller reports, and shuffle traffic for the IO studies.
  */
final case class Cost(
    wallMs: Long,
    execRunMs: Long,
    execCpuMs: Long,
    shuffleReadBytes: Long,
    shuffleReadRecords: Long,
    shuffleWriteBytes: Long,
    shuffleWriteRecords: Long,
    driverMs: Long = 0L) {
  /** cpu·s proxy: executor task time + driver compute. */
  def cpuSec: Double = (execRunMs + driverMs) / 1000.0
  def withDriver(ms: Long): Cost = copy(driverMs = driverMs + ms)
  def -(b: Cost): Cost = Cost(wallMs - b.wallMs, execRunMs - b.execRunMs, execCpuMs - b.execCpuMs,
    shuffleReadBytes - b.shuffleReadBytes, shuffleReadRecords - b.shuffleReadRecords,
    shuffleWriteBytes - b.shuffleWriteBytes, shuffleWriteRecords - b.shuffleWriteRecords,
    driverMs - b.driverMs)
}

/** A SparkListener that attributes task metrics to job groups so benches can
  * measure each pipeline independently within one shared session.
  */
object SparkCost {

  private final class Acc {
    @volatile var runMs = 0L
    @volatile var cpuMs = 0L
    @volatile var srB = 0L; @volatile var srR = 0L
    @volatile var swB = 0L; @volatile var swR = 0L
  }

  private val byGroup = new ConcurrentHashMap[String, Acc]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  private val stageJob = new ConcurrentHashMap[Int, Int]()
  @volatile private var installed = false

  private def install(spark: SparkSession): Unit = synchronized {
    if (!installed) {
      spark.sparkContext.addSparkListener(new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = {
          val grp = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
          jobGroup.put(e.jobId, grp)
          e.stageIds.foreach(s => stageJob.put(s, e.jobId))
        }
        override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
          val grp = Option(stageJob.get(e.stageId)).map(jobGroup.get).getOrElse(null)
          if (grp != null && e.taskMetrics != null) {
            val acc = byGroup.computeIfAbsent(grp, _ => new Acc)
            acc.synchronized {
              acc.runMs += e.taskMetrics.executorRunTime
              acc.cpuMs += e.taskMetrics.executorCpuTime / 1000000L
              acc.srB += e.taskMetrics.shuffleReadMetrics.totalBytesRead
              acc.srR += e.taskMetrics.shuffleReadMetrics.recordsRead
              acc.swB += e.taskMetrics.shuffleWriteMetrics.bytesWritten
              acc.swR += e.taskMetrics.shuffleWriteMetrics.recordsWritten
            }
          }
        }
      })
      installed = true
    }
  }

  private def snapshot(tag: String): Cost = {
    val a = byGroup.computeIfAbsent(tag, _ => new Acc)
    Cost(0L, a.runMs, a.cpuMs, a.srB, a.srR, a.swB, a.swR)
  }

  /** Run `body` under a job group and return its cost. Listener delivery is
    * asynchronous, so the listener bus is drained after the body.
    */
  def measure[T](spark: SparkSession, tag: String)(body: => T): (T, Cost) = {
    install(spark)
    val unique = s"$tag#${System.nanoTime()}"
    spark.sparkContext.setJobGroup(unique, tag, interruptOnCancel = false)
    val t0 = System.nanoTime()
    val result =
      try body
      finally spark.sparkContext.clearJobGroup()
    val wallMs = (System.nanoTime() - t0) / 1000000L
    BusDrain(spark.sparkContext)
    val c = snapshot(unique)
    (result, c.copy(wallMs = wallMs))
  }
}
